import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from cavitybec import meanfield, response, verify
from cavitybec.cli import main
from cavitybec.csvio import read_table


def test_meanfield_command_writes_table(tmp_path):
    code = main(["meanfield", "--output-dir", str(tmp_path),
                 "--set", "y_points=5", "--set", "y_frac_min=0.2",
                 "--set", "y_frac_max=1.2"])
    assert code == 0
    meta, names, rows = read_table(tmp_path / "meanfield.csv")
    assert meta["command"] == "meanfield"
    assert names == ["y_frac", "alpha", "beta", "gamma", "mu"]
    assert len(rows) == 5
    assert rows[0]["alpha"] == 0.0  # below threshold
    assert abs(rows[-1]["alpha"]) > 0.0  # above threshold


def test_bands_command_orders_branches(tmp_path):
    code = main(["bands", "--output-dir", str(tmp_path),
                 "--set", "site_count=101"])
    assert code == 0
    _, names, rows = read_table(tmp_path / "bands.csv")
    assert names == ["q", "omega1", "omega2", "omega3"]
    assert len(rows) == 50  # positive half of the grid
    for row in rows:
        assert 0.0 < row["omega1"] < row["omega2"] <= row["omega3"]


def test_bands_command_runs_the_ideal_gas_at_10001_sites(tmp_path):
    # omega_1 = q^2 = 1.0e-8 at q_min is a phonon mode, not a zero pair
    assert main(["bands", "--output-dir", str(tmp_path),
                 "--set", "site_count=10001", "--set", "g_coll=0"]) == 0
    _, _, rows = read_table(tmp_path / "bands.csv")
    assert rows[0]["omega1"] == pytest.approx(rows[0]["q"] ** 2, rel=1e-9)


def test_softmode_command_decreases_towards_threshold(tmp_path):
    code = main(["softmode", "--output-dir", str(tmp_path),
                 "--set", "y_points=8"])
    assert code == 0
    _, _, rows = read_table(tmp_path / "softmode.csv")
    omegas = [r["omega_s"] for r in rows]
    assert all(a > b for a, b in zip(omegas, omegas[1:]))


def test_config_file_and_set_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("g_coll = 0.2\ny_points = 3\n")
    out = tmp_path / "out"
    code = main(["softmode", "--config", str(cfg), "--output-dir", str(out),
                 "--set", "y_points=4"])
    assert code == 0
    meta, _, rows = read_table(out / "softmode.csv")
    assert meta["params"]["g_coll"] == 0.2
    assert len(rows) == 4


def test_unknown_config_key_exits_1(tmp_path):
    assert main(["softmode", "--set", "bogus=1",
                 "--output-dir", str(tmp_path)]) == 1


def test_malformed_set_exits_1(tmp_path):
    assert main(["softmode", "--set", "no_equals_sign",
                 "--output-dir", str(tmp_path)]) == 1


def test_bad_subcommand_exits_1(tmp_path):
    assert main(["frobnicate", "--output-dir", str(tmp_path)]) == 1


def test_solver_error_exits_2(tmp_path):
    # pin the sweep inside the refused window around the critical point
    code = main(["softmode", "--output-dir", str(tmp_path),
                 "--set", "y_frac_min=1.0", "--set", "y_frac_max=1.0",
                 "--set", "y_points=1"])
    assert code == 2


def test_mean_field_without_convergence_exits_2(tmp_path, monkeypatch,
                                               capsys):
    # Brent's method on the cubic, cut to one step, does not converge
    monkeypatch.setattr(meanfield, "_BRENT_MAXITER", 1)
    code = main(["meanfield", "--output-dir", str(tmp_path),
                 "--set", "y_frac_min=1.2", "--set", "y_frac_max=1.2",
                 "--set", "y_points=1"])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "solver error: mean-field cubic: Brent's method did not converge")


def test_workers_is_not_a_run_setting(tmp_path):
    # a sweep runs in one process
    assert main(["damping-sweep", "--output-dir", str(tmp_path),
                 "--set", "workers=2", "--set", "site_count=101"]) == 1
    assert not any(tmp_path.iterdir())


def test_damping_sweep_epsilon_family(tmp_path):
    code = main(["damping-sweep", "--output-dir", str(tmp_path),
                 "--set", "y_points=4", "--set", "y_frac_min=0.5",
                 "--set", "y_frac_max=0.8", "--set", "site_count=201",
                 "--set", "epsilons=0.03,0.01"])
    assert code == 0
    _, names, rows = read_table(tmp_path / "damping.csv")
    assert names == ["y_frac", "gamma_b_eps0.03", "gamma_b_eps0.01"]
    assert len(rows) == 4
    assert all(r["gamma_b_eps0.03"] >= 0.0 for r in rows)


def test_negative_epsilon_exits_1(tmp_path):
    # it used to exit 0 with gamma_B = -7.6e-5 in damping.csv
    code = main(["damping-sweep", "--output-dir", str(tmp_path),
                 "--set", "y_points=2", "--set", "site_count=101",
                 "--set", "epsilons=-0.01"])
    assert code == 1
    assert not (tmp_path / "damping.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("epsilon", ["inf", "1e300"])
def test_infinite_or_overflowing_epsilon_exits_1_and_writes_nothing(
        epsilon, tmp_path, capsys):
    # 1e300 used to exit 0 with rates of 0.0, past an overflow in the pole
    # sum; inf is refused where the setting is parsed
    code = main(["damping-sweep", "--output-dir", str(tmp_path),
                 "--set", "y_points=2", "--set", "site_count=101",
                 "--set", f"epsilons={epsilon}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_temperature_exits_1_and_writes_nothing(tmp_path, capsys):
    # it used to exit 3 with "invalid value encountered in subtract": the
    # occupations overflowed and n1 - n2 was inf - inf
    code = main(["temperature-sweep", "--output-dir", str(tmp_path),
                 "--set", "y_points=2", "--set", "site_count=101",
                 "--set", "temperatures=1e308"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: thermal occupation overflows")
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subnormal_temperature_runs_without_an_overflow(tmp_path):
    # it used to exit 0 only past an overflow in the thermal occupation;
    # the occupation's limit 0 is exact
    code = main(["temperature-sweep", "--output-dir", str(tmp_path),
                 "--set", "y_points=2", "--set", "site_count=101",
                 "--set", "temperatures=1e-320"])
    assert code == 0
    _, names, rows = read_table(tmp_path / "temperature.csv")
    # the subnormal 1e-320 is stored, and named, as 9.99989e-321
    y_frac, landau, beliaev = names
    assert landau.startswith("gamma_l_T") and beliaev.startswith("gamma_b_T")
    assert len(rows) == 2
    assert all(np.isfinite(r[name]) for r in rows for name in names)
    assert all(r[landau] == 0.0 < r[beliaev] for r in rows)


def test_atom_number_zero_exits_1(tmp_path):
    # it used to die with a ZeroDivisionError traceback
    code = main(["damping-sweep", "--output-dir", str(tmp_path),
                 "--set", "atom_number=0", "--set", "site_count=101"])
    assert code == 1
    assert not (tmp_path / "damping.csv").exists()


def test_non_integer_site_count_exits_1(tmp_path):
    # it used to exit 0 and write 98 modes at q = n / 100.5
    code = main(["bands", "--output-dir", str(tmp_path),
                 "--set", "site_count=100.5"])
    assert code == 1
    assert not (tmp_path / "bands.csv").exists()


def test_recoil_is_not_a_config_key(tmp_path):
    # frequencies are in recoil units; the unit is not a setting
    assert main(["bands", "--output-dir", str(tmp_path),
                 "--set", "recoil=1", "--set", "site_count=101"]) == 1


def test_nnls_iteration_cap_exits_with_the_numerics_code(tmp_path,
                                                        monkeypatch, capsys):
    full_nnls = scipy.optimize.nnls
    monkeypatch.setattr(scipy.optimize, "nnls", lambda a, b, maxiter=None:
                        full_nnls(a, b, maxiter=1))
    code = main(["poles", "--output-dir", str(tmp_path),
                 "--set", "y_points=2", "--set", "site_count=101",
                 "--set", "dump_grid=1"])
    assert code == 3
    assert "numerics error: NNLS comb fit" in capsys.readouterr().err


def test_outputs_deterministic_across_runs(tmp_path):
    # the damping sweep spans both phases; its second run finds every
    # phonon stack already solved, so equal bytes show that serving the
    # kept modes never changes an output
    response._phonon_modes.cache_clear()
    cases = [["softmode", "--set", "y_points=4"],
             ["damping-sweep", "--set", "y_points=3", "--set", "site_count=101",
              "--set", "y_frac_min=0.5", "--set", "y_frac_max=1.3",
              "--set", "epsilons=0.03,0.01"]]
    for k, args in enumerate(cases):
        out1, out2 = tmp_path / f"r1_{k}", tmp_path / f"r2_{k}"
        assert main(args + ["--output-dir", str(out1)]) == 0
        assert main(args + ["--output-dir", str(out2)]) == 0
        names = sorted(f.name for f in out1.iterdir())
        assert names == sorted(f.name for f in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_dump_grid_refuses_a_window_the_bath_band_leaves(tmp_path, capsys):
    # 101 sites at 1.462 y_crit: the bath band 1.355-1.705 leaves the
    # window (0.5, 1.6) that omega_max = 0.1 gives
    settings = {"cavity_detuning": -1962.43, "u": 4.786, "g_coll": 0.0744,
                "temperature": 0.1741, "phonon_damping": 0.005662,
                "site_count": 101, "atom_number": 1010, "y_frac_min": 1.462,
                "y_frac_max": 1.462, "y_points": 1, "omega_max": 0.1,
                "dump_grid": 1}
    args = ["poles", "--output-dir", str(tmp_path)]
    for key, value in settings.items():
        args += ["--set", f"{key}={value}"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "bath band [1.35529, 1.70519]" in err
    assert "omega window [0.5, 1.6]" in err
    assert not (tmp_path / "poles.csv").exists()


@pytest.mark.parametrize("command, settings", [
    ("meanfield", ["pump_amplitude=0.01", "u=5"]),
    ("softmode", ["g_coll=abc"]),
    ("softmode", ["u=inf"]),
    ("softmode", ["temperature=nan"]),
    ("temperature-sweep", ["temperatures=nan"]),
    ("softmode", ["y_points=abc"]),
    ("softmode", ["y_points=-3"]),
    ("softmode", ["y_points=1.5"]),
    ("damping-sweep", ["epsilons=a,b"]),
    ("bands", ["y_frac=abc"]),
    ("poles", ["n_track=two"]),
    ("damping-sweep", ["epsilons=0.01,0.01"]),
    ("temperature-sweep", ["temperatures=0.05,0.1,0.05"]),
    ("poles", ["y_points=0", "dump_grid=1"]),
    ("meanfield", ["dos_mode=2d"]),
    ("bands", ["dos_mode=2d"]),
    ("softmode", ["dos_mode=2d"]),
    ("verify", ["dos_mode=2d"]),
    # these three used to exit 0 with header-only tables
    ("spectral", ["omega_points=0"]),
    ("damping-sweep", ["y_points=0"]),
    ("poles", ["n_track=0"]),
])
def test_malformed_or_mixed_settings_exit_1_with_one_line(
        command, settings, tmp_path, capsys):
    # these used to exit 0 with wrong physics or end in a traceback
    args = [command, "--output-dir", str(tmp_path)]
    for item in settings:
        args += ["--set", item]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, settings, message", [
    # used to exit 0 with a descending grid
    ("spectral", ["omega_min=2", "omega_max=1"], "empty window (2, 1)"),
    # used to exit 3 with "only 0 verified poles in the window (2.0, 1.6)"
    ("poles", ["omega_min=2", "omega_max=0.1"], "empty window (2, 1.6)"),
    # used to exit 0 with nan and inf rows: the width overflows
    ("spectral", ["omega_min=-1e308", "omega_max=1e308", "omega_points=3"],
     "overflowing window (-1e+308, 1e+308)"),
], ids=lambda value: (value.rpartition("window ")[2]  # a case by its window
                      if isinstance(value, str) else None))
def test_empty_omega_window_exits_1_before_any_solve(
        command, settings, message, tmp_path, capsys):
    args = [command, "--output-dir", str(tmp_path), "--set", "site_count=101",
            "--set", "y_points=2"]
    for item in settings:
        args += ["--set", item]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert not list(tmp_path.iterdir())


def test_header_records_the_parsed_run_settings(tmp_path):
    code = main(["damping-sweep", "--output-dir", str(tmp_path),
                 "--set", "y_points=2", "--set", "site_count=101",
                 "--set", "epsilons=0.03,0.01", "--set", "omega_min=1"])
    assert code == 0
    meta, _, _ = read_table(tmp_path / "damping.csv")
    assert meta["run"]["epsilons"] == [0.03, 0.01]
    assert meta["run"]["temperatures"] == [0.02, 0.05, 0.1]
    assert meta["run"]["omega_min"] == 1.0
    assert isinstance(meta["run"]["omega_min"], float)
    assert meta["run"]["y_frac_max"] is None
    # the density of modes is a physics parameter of the point
    assert meta["params"]["dos_mode"] == "3d"
    assert "dos_mode" not in meta["run"]


def test_spectral_and_temperature_sweep_commands_write_their_tables(
        tmp_path):
    small = ["--set", "site_count=101", "--set", "y_points=2"]
    assert main(["spectral", "--output-dir", str(tmp_path),
                 "--set", "omega_points=16", *small]) == 0
    _, names, rows = read_table(tmp_path / "spectral.csv")
    assert names == ["omega", "y_frac", "rho"]
    assert len(rows) == 2 * 16
    assert all(r["rho"] >= 0.0 for r in rows)

    assert main(["temperature-sweep", "--output-dir", str(tmp_path),
                 "--set", "temperatures=0,0.1", *small]) == 0
    _, names, rows = read_table(tmp_path / "temperature.csv")
    assert names == ["y_frac", "gamma_l_T0", "gamma_b_T0",
                     "gamma_l_T0.1", "gamma_b_T0.1"]
    assert len(rows) == 2
    assert all(r["gamma_l_T0"] == 0.0 < r["gamma_l_T0.1"] for r in rows)
    _, _, rows = read_table(tmp_path / "temperature_sweep_long.csv")
    assert len(rows) == 2 * 2


def test_verify_command_passes_every_check(tmp_path, capsys):
    assert main(["verify", "--output-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert all("  PASS  " in line for line in lines)


def test_verify_checks_the_bath_of_the_given_dos_mode(tmp_path, capsys,
                                                      monkeypatch):
    # verify used to check the 3D bath whatever dos_mode was set
    seen = []

    def recording_build_response(p):
        seen.append(p.dos_mode)
        return response.build_response(p)

    monkeypatch.setattr(verify, "build_response", recording_build_response)
    assert main(["verify", "--output-dir", str(tmp_path),
                 "--set", "dos_mode=1d"]) == 0
    assert seen == ["1d"]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert all("  PASS  " in line for line in lines)


# -- the command-line contract of the sweep commands --------------------------

_EXTREME = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e-12, 1e12, -1e12,
                            1e300, -1e300])


def _number(lo, hi):
    # mostly ordinary values of a setting, sometimes an extreme one
    ordinary = st.floats(lo, hi)
    return st.one_of(ordinary, ordinary, ordinary, _EXTREME)


_PHYSICS = st.fixed_dictionaries({}, optional={
    "cavity_detuning": _number(-3000.0, -0.5),
    "u": _number(-0.2, 10.0),
    "g_coll": _number(0.0, 1.0),
    "temperature": _number(0.0, 1.0),
    "phonon_damping": _number(0.0, 0.2),
    "atom_number": st.sampled_from([0, 1, 7, 1010, 10 ** 9]),
    "condensate_width": _number(0.1, 20.0),
    "dos_mode": st.sampled_from(["1d", "3d"]),
})

_ERROR_PREFIXES = ("config error: ", "solver error: ", "numerics error: ")


def _finite_tables(outdir):
    """True when every number of every table in outdir is finite."""
    for path in outdir.iterdir():
        _, names, rows = read_table(path)
        if not rows or not all(np.isfinite(row[name]) for row in rows
                               for name in names):
            return False
    return True


def _assert_contract(command, settings_):
    """Run command under settings_ with warnings as errors: it exits 0
    with finite tables, or with one typed line on stderr, a documented
    exit code and no file."""
    args = [command]
    for key, value in settings_.items():
        args += ["--set", f"{key}={value}"]
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(args + ["--output-dir", str(outdir)])
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert err.getvalue() == ""
            assert list(outdir.iterdir())
            assert _finite_tables(outdir)
        else:
            message = err.getvalue()
            assert message.startswith(_ERROR_PREFIXES[code - 1])
            assert message.count("\n") == 1
            assert not outdir.exists() or not list(outdir.iterdir())


_Y_RANGE = st.tuples(_number(0.0, 1.8), _number(0.0, 1.8))
_Y_POINTS = st.sampled_from([2, 1, 3, 0])


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["damping-sweep", "temperature-sweep"]),
       physics=_PHYSICS, y_range=_Y_RANGE, y_points=_Y_POINTS,
       values=st.lists(_number(0.0, 0.3), min_size=1, max_size=3,
                       unique=True))
def test_sweep_commands_keep_their_contract(command, physics, y_range,
                                           y_points, values):
    # any input: exit 0 with finite tables, or one typed line on stderr,
    # a documented exit code and no file; a warning is a failure
    listed = "epsilons" if command == "damping-sweep" else "temperatures"
    _assert_contract(command, {
        "site_count": 101, **physics, "y_frac_min": y_range[0],
        "y_frac_max": y_range[1], "y_points": y_points,
        listed: ",".join(map(repr, values))})


@settings(max_examples=100, deadline=None)
@given(physics=_PHYSICS, y_range=_Y_RANGE, y_points=_Y_POINTS,
       window=st.tuples(_number(-1.0, 3.0), _number(-1.0, 3.0)),
       n_track=st.sampled_from([2, 1, 3, 0, 6]))
def test_poles_command_keeps_its_contract(physics, y_range, y_points, window,
                                          n_track):
    # the sweep commands' contract for poles, over its pump grid, its
    # omega window (omega_min, omega_max + 1.5) and n_track
    _assert_contract("poles", {
        "site_count": 101, **physics, "y_frac_min": y_range[0],
        "y_frac_max": y_range[1], "y_points": y_points,
        "omega_min": window[0], "omega_max": window[1],
        "n_track": n_track})


@pytest.mark.parametrize("command", ["meanfield", "softmode"])
@settings(max_examples=100, deadline=None)
@given(physics=_PHYSICS, y_range=_Y_RANGE, y_points=_Y_POINTS)
def test_pump_grid_commands_keep_their_contract(command, physics, y_range,
                                               y_points):
    # the sweep commands' contract for meanfield and softmode, over their
    # pump grid
    _assert_contract(command, {
        "site_count": 101, **physics, "y_frac_min": y_range[0],
        "y_frac_max": y_range[1], "y_points": y_points})


@settings(max_examples=100, deadline=None)
@given(physics=_PHYSICS, y_frac=_number(0.0, 1.8))
def test_bands_command_keeps_its_contract(physics, y_frac):
    _assert_contract("bands", {"site_count": 101, **physics,
                               "y_frac": y_frac})


@settings(max_examples=100, deadline=None)
@given(physics=_PHYSICS, y_range=_Y_RANGE, y_points=_Y_POINTS,
       omega_min=_number(-1.0, 3.0), width=_number(1e-3, 3.0),
       omega_points=st.sampled_from([64, 1, 2, 1024]))
def test_spectral_command_keeps_its_contract(physics, y_range, y_points,
                                             omega_min, width, omega_points):
    # the sweep commands' contract for spectral, over its pump grid and
    # its omega grid; the window is drawn by its width, since an empty one
    # is refused before any solve (test_empty_omega_window_exits_1_...)
    _assert_contract("spectral", {
        "site_count": 101, **physics, "y_frac_min": y_range[0],
        "y_frac_max": y_range[1], "y_points": y_points,
        "omega_min": omega_min, "omega_max": omega_min + width,
        "omega_points": omega_points})
