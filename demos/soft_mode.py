"""Soft-mode softening and the phonon band structure.

Sweeps the pump strength towards the self-organization threshold and
prints how the lowest polariton (the soft mode) loses its frequency, then
tabulates the three phonon bands at a representative pump.  Writes
soft_mode.csv and phonon_bands.csv.

Run:  python3 demos/soft_mode.py [output_dir]
"""

import sys
from pathlib import Path

import numpy as np

from cavitybec import (
    ModelExpansion, critical_coupling, momentum_grid, default_params,
    phonon_bands, soft_mode, solve_steady_state, write_table,
)


def main(out_dir="demo_output"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    p = default_params()
    y_crit = critical_coupling(p)
    print(f"critical pump y_crit = {y_crit:.6f} (recoil units)")

    fracs = np.linspace(0.0, 0.99, 34)
    rows = []
    for frac in fracs:
        pp = p.with_pump(float(frac) * y_crit)
        omega_s, _ = soft_mode(ModelExpansion(pp, solve_steady_state(pp)))
        rows.append({"y_frac": float(frac), "omega_s": float(omega_s)})
    write_table(out / "soft_mode.csv", ["y_frac", "omega_s"], rows,
                {"command": "demo-soft-mode"})
    print(f"soft mode: {rows[0]['omega_s']:.4f} at y = 0 "
          f"(analytic sqrt(1.2) = {np.sqrt(1.2):.4f})")
    print(f"           {rows[-1]['omega_s']:.4f} at y = 0.99 y_crit "
          "-- the mode softens to zero at the transition")

    frac = 0.8
    pp = p.with_pump(frac * y_crit)
    q_grid = momentum_grid(p)
    bands = phonon_bands(ModelExpansion(pp, solve_steady_state(pp)), q_grid)
    band_rows = [{"q": float(q), "omega1": w1, "omega2": w2, "omega3": w3}
                 for q, (w1, w2, w3) in zip(q_grid, bands.frequencies)]
    write_table(out / "phonon_bands.csv", ["q", "omega1", "omega2", "omega3"],
                band_rows, {"command": "demo-bands", "y_frac": frac})
    edge = band_rows[-1]
    print(f"phonon bands at y = {frac} y_crit: zone-edge frequencies "
          f"{edge['omega1']:.4f} / {edge['omega2']:.4f} / {edge['omega3']:.4f}")
    print("  (bands 1 and 2 touch at the zone edge; a soft mode at twice")
    print("   the band-edge energy is what makes the damping resonant)")
    print(f"wrote {out / 'soft_mode.csv'} and {out / 'phonon_bands.csv'}")


if __name__ == "__main__":
    main(*sys.argv[1:])
