"""Command-line driver.

Subcommands: meanfield, bands, softmode, damping-sweep, temperature-sweep,
spectral, poles, verify.  Parameters come from a key=value config file
(--config), overridden by repeatable --set key=value flags; outputs are CSV
files with a '#'-prefixed JSON header written to --output-dir.

Exit codes: 0 ok, 1 config error, 2 solver non-convergence/criticality,
3 numerics failure (instability, defective spectra, continuation, and a
floating-point overflow or invalid operation, which a command raises
instead of writing non-finite numbers).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .params import (ConfigError, critical_coupling, momentum_grid,
                     parse_config_text, thermo_from_mapping)
from .meanfield import (ConvergenceError, CriticalPointError,
                        solve_steady_state)
from .hamiltonian import ModelExpansion
from .bogoliubov import DiagonalizationError, soft_modes
from .bath import BathConstructionError
from .response import (NumericsError, _pump_label, build_response,
                       damping_sweep, phonon_bands)
from .continuation import continue_green, pole_sweep
from .csvio import write_table, write_json_lines

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_NUMERICS = 0, 1, 2, 3


def _real(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("expected a finite number")
    return number


def _count(least: int):
    def parse(value) -> int:
        if (isinstance(value, str) or value < least
                or not float(value).is_integer()):
            raise ValueError(f"expected a whole number >= {least}")
        return int(value)
    return parse


def _reals(value) -> list:
    values = [_real(tok) for tok in str(value).split(",")]
    if len(set(values)) != len(values):
        raise ValueError("repeated value")
    return values


# run-control settings (everything that is not a physics parameter):
# name -> (parser, default); a default of None picks a per-command value
RUN_SETTINGS = {
    "y_frac": (_real, 0.629),      # pump strength for single-point commands
    "y_frac_min": (_real, None),   # sweep grid, as fractions of y_crit
    "y_frac_max": (_real, None),
    "y_points": (_count(1), None),
    "epsilons": (_reals, "0.01"),  # comma-separated list for damping-sweep
    "temperatures": (_reals, "0.02,0.05,0.1"),  # list for temperature-sweep
    "omega_min": (_real, 0.5),
    "omega_max": (_real, 1.5),
    "omega_points": (_count(1), 1024),
    "n_track": (_count(1), 2),     # pole trajectories to follow
    "dump_grid": (_count(0), 0),   # poles: also dump a continued grid
    "nu_max": (_real, 0.1),        # depth of the dumped grid
    "seed": (_count(0), 0),        # seeds verify's random parameter sets
}

_SWEEP_DEFAULTS = {
    "meanfield": (0.1, 1.3, 40),
    "softmode": (0.1, 0.95, 40),
    "damping-sweep": (0.05, 1.55, 200),
    "temperature-sweep": (0.05, 1.55, 100),
    "spectral": (0.3, 0.95, 24),
    "poles": (0.70, 0.84, 15),
}


def load_settings(config_path, overrides):
    """Split config + --set pairs into (ThermoParams, run-settings dict);
    each run setting is parsed here, once.  A config file that cannot be
    read as UTF-8 text is a ConfigError."""
    mapping = {}
    if config_path:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read --config {config_path}: "
                              f"{getattr(exc, 'strerror', exc)}") from None
        mapping.update(parse_config_text(text))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        mapping.update(parse_config_text(item))

    run = {}
    for key, (parse, default) in RUN_SETTINGS.items():
        value = mapping.pop(key, default)
        try:
            run[key] = None if value is None else parse(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}, got {value!r}") from None
    return thermo_from_mapping(mapping), run


def _meta(p, run, command):
    return {"command": command, "version": __version__,
            "params": dataclasses.asdict(p),
            "run": {k: run[k] for k in sorted(run)}}


def _y_grid(p, run, command):
    """(pump values, y_crit) of the command's grid, refused when a value
    overflows."""
    keys = ("y_frac_min", "y_frac_max", "y_points")
    lo, hi, n = (default if run[key] is None else run[key]
                 for key, default in zip(keys, _SWEEP_DEFAULTS[command]))
    y_crit = critical_coupling(p)
    with np.errstate(over="ignore", invalid="ignore"):
        y_values = np.linspace(lo, hi, n) * y_crit
    if not np.isfinite(y_values).all():
        raise ConfigError(
            f"{command}: the pump grid y_frac in [{lo:g}, {hi:g}] times "
            f"y_crit = {y_crit:g} overflows")
    return y_values, y_crit


def _omega_window(run, command, widen=0.0):
    """(omega_min, omega_max + widen), refused when it is empty or its
    width overflows."""
    lo, hi = run["omega_min"], run["omega_max"] + widen
    if not (lo < hi and math.isfinite(hi - lo)):
        upper = f"omega_max + {widen:g}" if widen else "omega_max"
        kind = "empty" if not lo < hi else "overflowing"
        raise ConfigError(
            f"{command} needs a finite window omega_min < {upper}, got the "
            f"{kind} window ({lo:g}, {hi:g})")
    return lo, hi


# -- subcommand bodies -----------------------------------------------------

def cmd_meanfield(p, run, outdir):
    y_values, y_crit = _y_grid(p, run, "meanfield")
    rows = []
    for y in y_values:
        mf = solve_steady_state(p.with_pump(float(y)))
        rows.append([y / y_crit, mf.alpha, mf.beta, mf.gamma, mf.mu])
    write_table(outdir / "meanfield.csv",
                ["y_frac", "alpha", "beta", "gamma", "mu"], rows,
                _meta(p, run, "meanfield"))


def cmd_bands(p, run, outdir):
    y_crit = critical_coupling(p)
    pp = p.with_pump(run["y_frac"] * y_crit)
    q_grid = momentum_grid(pp)
    modes = phonon_bands(ModelExpansion(pp, solve_steady_state(pp)), q_grid)
    rows = [[q, *omegas] for q, omegas in zip(q_grid, modes.frequencies)]
    write_table(outdir / "bands.csv",
                ["q", "omega1", "omega2", "omega3"], rows,
                _meta(pp, run, "bands"))


def cmd_softmode(p, run, outdir):
    y_values, y_crit = _y_grid(p, run, "softmode")
    rows = []
    for y in y_values:
        pp = p.with_pump(float(y))
        # the soft mode as bogoliubov.soft_mode finds it, named by its y
        modes = soft_modes(ModelExpansion(pp, solve_steady_state(pp))
                           .polariton_matrix(), [_pump_label(pp.y)])
        rows.append([y / y_crit, modes.frequencies[0]])
    write_table(outdir / "softmode.csv", ["y_frac", "omega_s"], rows,
                _meta(p, run, "softmode"))


def _write_damping(p, run, outdir, command, **varied):
    """damping_sweep on the command's y grid over the epsilons or the
    temperatures in varied (the other is p's), as the long table."""
    y_values, y_crit = _y_grid(p, run, command)
    records = damping_sweep(p, y_values, **varied)
    write_table(outdir / f"{command.replace('-', '_')}_long.csv",
                ["y_frac", "epsilon", "temperature", "omega_s",
                 "delta_l", "gamma_l", "delta_b", "gamma_b"],
                [[r["y_frac"], r["epsilon"], r["temperature"], r["omega_s"],
                  r["delta_l"], r["gamma_l"], r["delta_b"], r["gamma_b"]]
                 for r in records], _meta(p, run, command))
    return records


def _pivot(records, key, values, fields):
    """(names, rows) of a y_frac x value table of the sweep records.

    fields maps a record field to its column-name template, formatted with
    each of values in turn; rows ascend in y_frac.
    """
    table = {}
    for r in records:
        table.setdefault(r["y_frac"], {})[r[key]] = r
    names = ["y_frac"] + [tmpl.format(v) for v in values
                          for tmpl in fields.values()]
    rows = [[yf] + [table[yf][v][f] for v in values for f in fields]
            for yf in sorted(table)]
    return names, rows


def cmd_damping_sweep(p, run, outdir):
    epsilons = run["epsilons"]
    records = _write_damping(p, run, outdir, "damping-sweep",
                             epsilons=epsilons)
    for name, field in (("damping", "gamma_b"), ("shifts", "delta_b")):
        write_table(outdir / f"{name}.csv",
                    *_pivot(records, "epsilon", epsilons,
                            {field: field + "_eps{:g}"}),
                    _meta(p, run, "damping-sweep"))


def cmd_temperature_sweep(p, run, outdir):
    temps = run["temperatures"]
    records = _write_damping(p, run, outdir, "temperature-sweep",
                             temperatures=temps)
    write_table(outdir / "temperature.csv",
                *_pivot(records, "temperature", temps,
                        {"gamma_l": "gamma_l_T{:g}",
                         "gamma_b": "gamma_b_T{:g}"}),
                _meta(p, run, "temperature-sweep"))


def cmd_spectral(p, run, outdir):
    y_values, y_crit = _y_grid(p, run, "spectral")
    omega = np.linspace(*_omega_window(run, "spectral"), run["omega_points"])
    rows = []
    for y in y_values:
        resp = build_response(p.with_pump(float(y)))
        rho = resp.spectral(omega)
        yf = float(y) / y_crit
        rows.extend([[w, yf, r] for w, r in zip(omega, rho)])
    write_table(outdir / "spectral.csv", ["omega", "y_frac", "rho"], rows,
                _meta(p, run, "spectral"))


def cmd_poles(p, run, outdir):
    y_values, y_crit = _y_grid(p, run, "poles")
    n_track = run["n_track"]
    window = _omega_window(run, "poles", widen=1.5)
    if run["dump_grid"]:
        # the comb fit behind the dump needs the bath band in its window;
        # checked before the sweep, so a refused run writes nothing
        dumped = p.with_pump(float(y_values[len(y_values) // 2]))
        resp = build_response(dumped)
        eps = resp.bath.epsilon
        _, centres = resp.bath.active_poles
        band = (np.min(centres, initial=np.inf),
                np.max(centres, initial=-np.inf))
        if band[0] - 5.0 * eps < window[0] or band[1] + 5.0 * eps > window[1]:
            raise ConfigError(
                f"dump_grid: the bath band [{band[0]:.6g}, {band[1]:.6g}] "
                f"+- 5 eps leaves the omega window [{window[0]:.6g}, "
                f"{window[1]:.6g}] (omega_min, omega_max + 1.5)")
    records = pole_sweep(p, y_values, omega_window=window, n_track=n_track)
    names = ["y_frac"]
    for i in range(1, n_track + 1):
        names += [f"re_z{i}", f"im_z{i}", f"abs_residue{i}"]
    rows = []
    for rec in records:
        row = [rec["y"] / y_crit]
        for pole, res in zip(rec["poles"], rec["residues"]):
            row += [pole.z.real, pole.z.imag, abs(res)]
        rows.append(row)
    write_table(outdir / "poles.csv", names, rows, _meta(p, run, "poles"))

    if run["dump_grid"]:
        omega = np.linspace(*window, 2048)
        grid, _model = continue_green(omega, resp.green(omega), eps,
                                      nu_max=run["nu_max"])
        zs = grid.z()
        recs = ({"re_z": float(z.real), "im_z": float(z.imag),
                 "re_G": float(v.real), "im_G": float(v.imag)}
                for z, v in zip(zs.ravel(), grid.values.ravel()))
        write_json_lines(outdir / "green_grid.jsonl", recs,
                         _meta(dumped, run, "poles"))


def cmd_verify(p, run, outdir):
    from .verify import run_verification

    results = run_verification(p, seed=run["seed"])
    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
        all_ok = all_ok and ok
    if not all_ok:
        raise NumericsError("verification suite failed")


COMMANDS = {
    "meanfield": cmd_meanfield,
    "bands": cmd_bands,
    "softmode": cmd_softmode,
    "damping-sweep": cmd_damping_sweep,
    "temperature-sweep": cmd_temperature_sweep,
    "spectral": cmd_spectral,
    "poles": cmd_poles,
    "verify": cmd_verify,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cavitybec",
        description="Polariton damping in a cavity-coupled condensate: "
                    "steady states, excitation bands, damping rates, "
                    "spectral functions and pole trajectories.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="key=value parameter file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    parser.add_argument("--output-dir", default=".",
                        help="directory for CSV outputs")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        p, run = load_settings(args.config, args.set)
        outdir = Path(args.output_dir)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot use --output-dir {outdir}: {exc.strerror}") from None
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            COMMANDS[args.command](p, run, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, CriticalPointError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (NumericsError, DiagonalizationError, BathConstructionError,
            FloatingPointError) as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
