"""Exact poles of the analytically continued Green's function.

The Born-Markov rate is only the first-order displacement of the
polariton pole.  Here the pole positions are computed exactly from the
meromorphic self-energy and tracked through the resonance region: two
trajectories approach, exchange character, and never cross in Re z.  At
the closest approach the true linewidth is several times smaller than the
Born-Markov prediction.  Writes pole_trajectories.csv.

Run:  python3 demos/pole_trajectories.py [output_dir]
"""

import sys
from pathlib import Path

import numpy as np

from cavitybec import build_response, critical_coupling, default_params, \
    pole_sweep, write_table


def main(out_dir="demo_output"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    p = default_params()
    y_crit = critical_coupling(p)
    fracs = np.linspace(0.70, 0.84, 15)

    print(f"tracking 2 poles across {len(fracs)} pump strengths ...")
    records = pole_sweep(p, fracs * y_crit, n_track=2)
    rows = []
    for frac, rec in zip(fracs, records):
        row = {"y_frac": float(frac)}
        # 1-based columns, as the poles command writes them
        for i, (pole, res) in enumerate(zip(rec["poles"], rec["residues"]),
                                        start=1):
            row[f"re_z{i}"] = float(pole.z.real)
            row[f"im_z{i}"] = float(pole.z.imag)
            row[f"abs_residue{i}"] = float(abs(res))
        rows.append(row)
    fields = list(rows[0].keys())
    write_table(out / "pole_trajectories.csv", fields, rows,
                {"command": "demo-poles"})

    gaps = [abs(r["re_z1"] - r["re_z2"]) for r in rows]
    i = int(np.argmin(gaps))
    r = rows[i]
    print(f"minimum Re-gap {gaps[i]:.4f} at y/y_crit = {r['y_frac']:.3f} "
          "(strictly positive: avoided crossing)")
    narrow = min(abs(r["im_z1"]), abs(r["im_z2"]))
    bm = build_response(
        p.with_pump(float(r["y_frac"]) * y_crit)).born_markov()
    print(f"narrow pole |Im z| = {narrow:.5f} vs Born-Markov gamma_B = "
          f"{bm.gamma_b:.5f}  (ratio {bm.gamma_b / narrow:.1f})")
    print("the perturbative rate overestimates the true linewidth at the")
    print("resonance: the pole is repelled by the two-phonon continuum")
    print(f"wrote {out / 'pole_trajectories.csv'}")


if __name__ == "__main__":
    main(*sys.argv[1:])
