#!/usr/bin/env python3
"""Fast self-test of the benchmark, every workload on a tiny grid.

    python3 perfbench/selftest.py

Checks that
  * every end-to-end and per-layer metric named in BENCHMARK.json is
    emitted, with its unit, and nothing else;
  * a deliberately corrupted output is counted as a failed operation;
  * the reference comparison flags a perturbed output;
  * the command line prints the result object as its last line.
Takes about fifteen seconds.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys

import run  # pins the BLAS threads before numpy is imported

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
UNITS = {"end_to_end": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
         "per_layer": {m["name"]: m["unit"] for m in SPEC["per_layer"]}}


def require(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def corrupt_sweep(records):
    records = copy.deepcopy(records)
    records[0]["gamma_b"] = -1.0
    return records


def corrupt_poles(records):
    records = copy.deepcopy(records)
    pl = records[0]["poles"][0]
    records[0]["poles"][0] = dataclasses.replace(pl, z=pl.z.conjugate())
    return records


def corrupt_spectral_fit(points):
    points = copy.deepcopy(points)
    points[0]["rho"][0] = -1.0
    return points


CORRUPT = {"sweep": corrupt_sweep, "poles": corrupt_poles,
           "spectral_fit": corrupt_spectral_fit}


def check_metrics(result, kind, label):
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    require(got == UNITS[kind], f"{label}: metrics {sorted(got)} != {kind}")
    for k, m in result["metrics"].items():
        require(isinstance(m["value"], float), f"{label}: {k} not a number")


def main() -> int:
    require(set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]},
            "workloads in run.py and BENCHMARK.json differ")
    require(dict(run.END_TO_END) == UNITS["end_to_end"], "END_TO_END != BENCHMARK.json")
    require(dict(run.PER_LAYER) == UNITS["per_layer"], "PER_LAYER != BENCHMARK.json")

    for name in run.WORKLOADS:
        result, env = run.benchmark(name, seed=1, seconds=0.0, trace=False,
                                    size="tiny", setup_children=0)
        require(result["correct"] and result["failed"] == 0,
                f"{name}: clean run failed: {env['problems']}")
        check_metrics(result, "end_to_end", name)

        result, env = run.benchmark(name, seed=1, seconds=0.0, trace=True,
                                    size="tiny", tamper=CORRUPT[name],
                                    setup_children=0)
        require(result["failed"] == 1 and not result["correct"],
                f"{name}: corrupted output not counted as failed "
                f"({result['failed']}/{result['attempted']})")
        check_metrics(result, "per_layer", f"{name} traced")
        print(f"ok {name}")

    ref = run.load_reference("sweep")
    require(run.reference_deviation(ref, ref) == 0.0, "reference differs from itself")
    bumped = copy.deepcopy(ref)
    bumped["gamma_b"][0] *= 1.0 + 1e-6
    require(run.reference_deviation(ref, bumped) > run.REF_RTOL,
            "perturbed output passes the reference comparison")
    print("ok reference")

    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"),
                           "--workload", "poles", "--seed", "2", "--seconds",
                           "0", "--trace", "0", "--size", "tiny"],
                          cwd=run.ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(last) == {"correct", "attempted", "failed", "metrics"},
            f"last line keys {sorted(last)}")
    require(last["correct"] and last["attempted"] >= 1, "command-line run failed")
    check_metrics(last, "end_to_end", "command line")
    print("ok command line")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
