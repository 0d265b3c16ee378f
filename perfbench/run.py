#!/usr/bin/env python3
"""Benchmark of the cavitybec damping pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (pump points are drawn from --seed, stratified over the range,
sorted, and kept at least CRIT_GAP away from y/y_crit = 1):

  sweep         one damping_sweep over two pump points per operation,
                y/y_crit in [0.3, 1.6], eps in {0.03, 0.01, 0.003, 0.001},
                T = 0, 1001 sites.  The per-q stage of build_response does
                the work; the continuation layer does none.
  poles         one pole_sweep over two pump points per operation,
                y/y_crit in [0.70, 0.84], omega window (0, 3).  The only
                workload where the companion eigensolve carries real weight.
  spectral_fit  one pump point per operation in [0.3, 0.95] on the doubled
                2001-site grid (density unchanged): build_response, spectral
                on the CLI's 1024-point window, spectral_sum_rule,
                reconstruct_meromorphic on [0.3, 1.6] at step eps/8 and the
                off-axis comparison of the fitted model with the exact G.
                Self-energy evaluation and the NNLS fit do the work.

Operations are short so that points_per_s can be built from the shortest
time of each timed call (see fast_time).  With --trace 0 the run reports
the end-to-end metrics; with --trace 1 it times every layer through
perfbench/tracer.py and reports per-layer metrics per pump point.  Every
operation's output passes the correctness gate in `check_*`; at the
default seed the first operation is also compared with the stored
reference in perfbench/reference/.  The last line of standard output is
one JSON object; the lines before it repeat every metric by name with its
unit, and the run's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

# One BLAS thread: on two cores it removes the first-call thread-pool
# stall of the dense eigensolve and is as fast as two threads when warm.
# It must be set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

_T_IMPORT = time.perf_counter()
import numpy as np  # noqa: E402
import scipy  # noqa: E402
_NUMPY_IMPORT_S = time.perf_counter() - _T_IMPORT

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402

DEFAULT_SEED = 0
SETUP_CHILDREN = 2         # fresh set-ups before and again after the timed section
CRIT_GAP = 2e-3            # |y/y_crit - 1| window refused, as in criterion 8
EPSILONS = (0.03, 0.01, 0.003, 0.001)
SPECTRAL_WINDOW = (0.5, 1.5, 1024)   # the CLI's spectral defaults
FIT_RANGE = (0.3, 1.6)
REF_RTOL = 1e-9

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "frac",
}

# name -> unit; times and counts are per traced pump point
PER_LAYER = {
    "trace.points": "count",
    "trace.overhead_frac": "frac",
    "coupling.vertex_coefficients.calls": "count/point",
    "coupling.vertex_coefficients.s": "s/point",
    "bogoliubov.diagonalize_symplectic.calls": "count/point",
    "bogoliubov.diagonalize_symplectic.s": "s/point",
    "bogoliubov.matrices": "count/point",
    "hamiltonian.ModelExpansion.calls": "count/point",
    "hamiltonian.ModelExpansion.s": "s/point",
    "hamiltonian.interaction_tensors.s": "s/point",
    "hamiltonian.polariton_matrix.s": "s/point",
    "hamiltonian.phonon_matrix.calls": "count/point",
    "hamiltonian.phonon_matrix.s": "s/point",
    "meanfield.solve_steady_state.calls": "count/point",
    "meanfield.solve_steady_state.s": "s/point",
    "bath.build_bath_spectrum.calls": "count/point",
    "bath.build_bath_spectrum.s": "s/point",
    "bath.modes": "count/point",
    "response.build_response.calls": "count/point",
    "response.build_response.s": "s/point",
    "response.build_response.self_s": "s/point",
    "response.damping_sweep.self_s": "s/point",
    "response.self_energy.calls": "count/point",
    "response.self_energy.s": "s/point",
    "response.self_energy.terms": "count/point",
    "response.Response.spectral.s": "s/point",
    "response.spectral_sum_rule.s": "s/point",
    "continuation.companion_pole_candidates.calls": "count/point",
    "continuation.companion_pole_candidates.s": "s/point",
    "continuation.companion_pole_candidates.order": "count/point",
    "continuation.find_poles.calls": "count/point",
    "continuation.find_poles.s": "s/point",
    "continuation.find_poles.seeds": "count/point",
    "continuation.find_poles.failed_seeds": "count/point",
    "continuation.find_poles.yield": "frac",
    "continuation.reconstruct_meromorphic.s": "s/point",
    "continuation.reconstruct_meromorphic.comb": "count/point",
    "continuation.pole_sweep.self_s": "s/point",
}


@dataclass(frozen=True)
class Workload:
    pump_range: tuple     # (lo, hi) in units of y_crit
    points_per_op: int    # pump points in one operation
    site_count: int


WORKLOADS = {
    "sweep": Workload((0.3, 1.6), 2, 1001),
    "poles": Workload((0.70, 0.84), 2, 1001),
    "spectral_fit": Workload((0.3, 0.95), 1, 2001),
}
# --size tiny: the same pipeline on 101-site grids (201 for spectral_fit),
# for the self-test
TINY = {name: replace(w, points_per_op=min(w.points_per_op, 2),
                      site_count=101 if w.site_count == 1001 else 201)
        for name, w in WORKLOADS.items()}


# -- set-up ----------------------------------------------------------------

def setup() -> float:
    """Import cavitybec from this checkout and run the warm-up pass.

    Returns the seconds spent: numpy/scipy and package import, one
    101-site build_response with its companion eigensolve, and one 501x501
    complex eig, the size the poles workload solves, so that first-call
    costs land here and not in the timed section.
    """
    start = time.perf_counter()
    if not (SRC / "cavitybec" / "__init__.py").is_file():
        raise SystemExit(f"error: no cavitybec package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cavitybec
    from cavitybec import continuation, response
    if SRC not in Path(cavitybec.__file__).resolve().parents:
        raise SystemExit(f"error: imported cavitybec from {cavitybec.__file__}")

    p = _params(101)
    resp = response.build_response(p.with_pump(0.5 * cavitybec.critical_coupling(p)))
    continuation.companion_pole_candidates(resp)
    rng = np.random.default_rng(DEFAULT_SEED)
    arrow = rng.standard_normal((501, 501)) + 1j * rng.standard_normal((501, 501))
    np.linalg.eigvals(arrow)
    return _NUMPY_IMPORT_S + time.perf_counter() - start


def _child_setup_s() -> float:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--setup-only"], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _params(site_count: int):
    from cavitybec import default_params
    p = default_params()
    # fixed density N_c / L, as criterion 12 scales the grid
    return replace(p, site_count=site_count,
                   atom_number=p.atom_number * site_count / p.site_count)


# -- inputs ----------------------------------------------------------------

def draw_fracs(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """n pump fractions, one uniform draw per equal sub-interval, sorted."""
    edges = np.linspace(lo, hi, n + 1)
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        f = rng.uniform(a, b)
        while abs(f - 1.0) < CRIT_GAP:
            f = rng.uniform(a, b)
        out.append(f)
    return np.sort(out)


class Inputs:
    """Per-operation pump points from the seed.

    Multi-point operations take one stratified draw each; single-point
    operations walk through stratified blocks of eight, so a run covers
    the range evenly whatever the seed.
    """

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl = wl
        self.rng = np.random.default_rng(seed)
        self._queue = []

    def next(self) -> np.ndarray:
        if self.wl.points_per_op > 1:
            return draw_fracs(self.rng, *self.wl.pump_range, self.wl.points_per_op)
        if not self._queue:
            self._queue = list(draw_fracs(self.rng, *self.wl.pump_range, 8))
        return np.array([self._queue.pop(0)])


# -- operations ------------------------------------------------------------
# Each op_* calls the package through its module attributes, so the
# tracer's wrappers see the calls.

def op_sweep(p, ys, clock):
    from cavitybec import response
    return clock("damping_sweep", response.damping_sweep, p, ys,
                 epsilons=EPSILONS)


def op_poles(p, ys, clock):
    from cavitybec import continuation
    return clock("pole_sweep", continuation.pole_sweep, p, ys,
                 omega_window=(0.0, 3.0))


def _probes():
    # verify's off-axis probe points: depths up to eps/2 above the pole line
    return (np.linspace(0.6, 1.3, 40)[:, None]
            - 1j * np.array([0.002, 0.003, 0.005])[None, :]).ravel()


def op_spectral_fit(p, ys, clock):
    from cavitybec import continuation, response
    out = []
    for y in ys:
        resp = clock("build_response", response.build_response,
                     p.with_pump(float(y)))
        rho = clock("spectral", resp.spectral, np.linspace(*SPECTRAL_WINDOW))
        total, _, _ = clock("spectral_sum_rule", response.spectral_sum_rule, resp)
        eps = resp.bath.epsilon
        omega = np.arange(*FIT_RANGE, eps / 8.0)
        model = clock("reconstruct_meromorphic", lambda: (
            continuation.reconstruct_meromorphic(omega, resp.green(omega), eps)))
        zs = _probes()
        exact, fitted = clock("compare", lambda: (resp.green(zs), model.green(zs)))
        out.append({"y": float(y), "rho": rho, "sum_rule": total,
                    "exact": exact, "fitted": fitted})
    return out


# -- correctness gate ------------------------------------------------------
# check_* return a list of violated invariants (empty when the output holds).

def check_sweep(ys, records):
    bad = []
    if len(records) != len(ys) * len(EPSILONS):
        bad.append(f"{len(records)} records for {len(ys)} points")
    for r in records:
        vals = [r[k] for k in ("omega_s", "delta_l", "gamma_l", "delta_b", "gamma_b")]
        if not np.all(np.isfinite(vals)):
            bad.append(f"non-finite rate at y = {r['y']}")
        if not r["gamma_b"] >= 0.0:
            bad.append(f"gamma_b = {r['gamma_b']} < 0 at y = {r['y']}")
        if r["temperature"] == 0.0 and r["gamma_l"] != 0.0:
            bad.append(f"gamma_l = {r['gamma_l']} != 0 at T = 0")
    return bad


def check_poles(ys, records, n_track=2):
    bad = []
    if len(records) != len(ys):
        bad.append(f"{len(records)} records for {len(ys)} points")
    for r in records:
        zs = [pl.z for pl in r["poles"]]
        if len(zs) != n_track:
            bad.append(f"{len(zs)} poles at y = {r['y']}, want {n_track}")
        if not all(np.isfinite(z) and z.imag < 0 for z in zs):
            bad.append(f"pole not in the lower half plane at y = {r['y']}: {zs}")
    return bad


def check_spectral_fit(ys, points):
    bad = []
    if len(points) != len(ys):
        bad.append(f"{len(points)} results for {len(ys)} points")
    for pt in points:
        rho = pt["rho"]
        if not (np.all(np.isfinite(rho)) and np.min(rho) >= 0.0):
            bad.append(f"rho < 0 or non-finite at y = {pt['y']}")
        if not abs(pt["sum_rule"] - 1.0) < 1e-2:
            bad.append(f"sum rule {pt['sum_rule']} at y = {pt['y']}")
        rel = np.max(np.abs(pt["fitted"] - pt["exact"]) / np.abs(pt["exact"]))
        if not rel < 1e-3:   # verify's continuation-agreement bound
            bad.append(f"continuation off by {rel:.2e} at y = {pt['y']}")
    return bad


def summarize(name, out) -> dict:
    """Flat float arrays of an operation's outputs, for the reference file."""
    if name == "sweep":
        keys = ("y", "omega_s", "delta_l", "gamma_l", "delta_b", "gamma_b")
        return {k: [r[k] for r in out] for k in keys}
    if name == "poles":
        zs = [pl.z for r in out for pl in r["poles"]]
        res = [abs(x) for r in out for x in r["residues"]]
        return {"re_z": [z.real for z in zs], "im_z": [z.imag for z in zs],
                "abs_residue": res}
    return {"y": [pt["y"] for pt in out],
            "rho": [float(v) for pt in out for v in pt["rho"]],
            "sum_rule": [pt["sum_rule"] for pt in out],
            **{f"{part}_{key}": [float(getattr(v, part)) for pt in out for v in pt[key]]
               for key in ("exact", "fitted") for part in ("real", "imag")}}


def reference_deviation(ref: dict, got: dict) -> float:
    """Largest |got - ref| over all outputs, relative to each output's scale."""
    if set(ref) != set(got):
        return float("inf")
    worst = 0.0
    for k, r in ref.items():
        r, g = np.asarray(r, dtype=float), np.asarray(got[k], dtype=float)
        if r.shape != g.shape:
            return float("inf")
        scale = max(float(np.max(np.abs(r), initial=0.0)), 1e-300)
        worst = max(worst, float(np.max(np.abs(g - r), initial=0.0)) / scale)
    return worst


OPS = {"sweep": (op_sweep, check_sweep),
       "poles": (op_poles, check_poles),
       "spectral_fit": (op_spectral_fit, check_spectral_fit)}


# -- timed section ---------------------------------------------------------

def fast_time(samples) -> float:
    """Shortest of the durations of one timed call (or of the set-ups).

    On a shared two-core x86-64 VM the CPU speed swings by up to 2.5x,
    for seconds to minutes at a time, with the load of other tenants; a
    mean or median follows the share of slow time and spread by 20-45 %
    between runs there.  Interference only ever adds time, so the minimum over
    many short calls measures the program itself (as `timeit` advises).
    """
    return min(samples)


class Tally:
    """Counts and timings of the operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.points = 0
        self.op_s = []         # wall time of each operation, failed ones too
        self.step_s = {}       # timed call -> its duration in each passed operation
        self.ref_dev = None
        self.problems = []

    def op_cost(self) -> float:
        """Seconds per operation: the sum of each timed call's fast_time."""
        return sum(fast_time(v) for v in self.step_s.values())


def run_op(name, p, fracs, y_crit, tally, tamper=None, reference=None):
    """One operation: call, gate, count.

    tamper(output) -> output is applied before the gate; with a reference
    the output must also match it to REF_RTOL.
    """
    from cavitybec import (BathConstructionError, ConfigError,
                           ConvergenceError, CriticalPointError,
                           DiagonalizationError, NumericsError)
    op, check = OPS[name]
    ys = fracs * y_crit
    steps = {}

    def clock(step, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            steps[step] = steps.get(step, 0.0) + time.perf_counter() - start

    tally.attempted += 1
    start = time.perf_counter()
    try:
        out = op(p, ys, clock)
    except (BathConstructionError, ConfigError, ConvergenceError,
            CriticalPointError, DiagonalizationError, NumericsError) as exc:
        tally.op_s.append(time.perf_counter() - start)
        tally.failed += 1
        tally.problems.append(f"{type(exc).__name__}: {exc}")
        return None
    tally.op_s.append(time.perf_counter() - start)
    if tamper is not None:
        out = tamper(out)
    bad = check(ys, out)
    if reference is not None:
        tally.ref_dev = reference_deviation(reference, summarize(name, out))
        if not tally.ref_dev <= REF_RTOL:
            bad.append(f"reference deviation {tally.ref_dev:.3e} > {REF_RTOL:g}")
    if bad:
        tally.failed += 1
        tally.problems.extend(bad)
        return None
    tally.points += len(ys)
    for step, duration in steps.items():
        tally.step_s.setdefault(step, []).append(duration)
    return out


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              size: str = "full", tamper=None,
              setup_children: int = SETUP_CHILDREN):
    """Run one workload; returns (result object, environment record).

    tamper(output) -> output, if given, is applied to the first operation's
    output before the gate (the self-test uses it to corrupt one result).
    """
    setup_s = [setup()] + [_child_setup_s() for _ in range(setup_children)]
    import cavitybec

    wl = (TINY if size == "tiny" else WORKLOADS)[name]
    p = _params(wl.site_count)
    y_crit = cavitybec.critical_coupling(p)
    inputs = Inputs(wl, seed)
    plain, traced = Tally(), Tally()
    tracer = Tracer()
    reference = (load_reference(name)
                 if seed == DEFAULT_SEED and size == "full" else None)
    start = time.perf_counter()
    while True:
        fracs = inputs.next()
        if plain.attempted == 0:
            run_op(name, p, fracs, y_crit, plain, tamper, reference)
        else:
            run_op(name, p, fracs, y_crit, plain)
        if trace:
            with tracer.installed():
                run_op(name, p, fracs, y_crit, traced)
        if time.perf_counter() - start >= seconds:
            break
    # interference comes in spells of seconds to minutes: set-ups on both
    # sides of the timed section give the minimum a quiet moment to find
    setup_s += [_child_setup_s() for _ in range(setup_children)]

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    if trace:
        metrics = _per_layer(tracer, traced, plain)
    else:
        metrics = {
            "setup_s": fast_time(setup_s),
            "points_per_s": wl.points_per_op / plain.op_cost() if plain.points else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_frac": 1.0 - failed / attempted,
        }
    units = PER_LAYER if trace else END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in metrics.items()}}
    env = {"workload": name, "seed": seed, "size": size, "trace": int(trace),
           "site_count": wl.site_count, "points_per_op": wl.points_per_op,
           "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "commit": _git_commit(),
           "setup_samples_s": setup_s,
           "points_per_wall_s": plain.points / sum(plain.op_s),
           "step_s": plain.step_s,
           "ops_failed_frac": failed / attempted,
           "reference_max_rel_dev": plain.ref_dev,
           "problems": (plain.problems + traced.problems)[:20]}
    return result, env


def _per_layer(tracer: Tracer, traced: Tally, plain: Tally) -> dict:
    n = max(traced.points, 1)
    out = {"trace.points": traced.points,
           # each traced operation directly follows its untraced twin, so the
           # two mostly share the machine's speed of the moment
           "trace.overhead_frac": statistics.median(
               t / u for u, t in zip(plain.op_s, traced.op_s)) - 1.0}
    seeds = tracer.counts["continuation.find_poles.seeds"]
    for metric in PER_LAYER:
        if metric in out:
            continue
        if metric == "continuation.find_poles.yield":
            out[metric] = tracer.counts["continuation.find_poles.poles"] / seeds if seeds else 0.0
            continue
        span, _, field = metric.rpartition(".")
        table = {"calls": tracer.calls, "s": tracer.total,
                 "self_s": tracer.self_s}.get(field)
        out[metric] = (table[span] if table is not None else tracer.counts[metric]) / n
    return out


def load_reference(name: str) -> dict:
    return json.loads((BENCH / "reference" / f"{name}.json").read_text())


def write_reference(name: str) -> Path:
    """Store the first operation's outputs at the default seed."""
    setup()
    import cavitybec
    wl = WORKLOADS[name]
    p = _params(wl.site_count)
    fracs = Inputs(wl, DEFAULT_SEED).next()
    out = OPS[name][0](p, fracs * cavitybec.critical_coupling(p),
                       lambda step, fn, *a, **kw: fn(*a, **kw))
    path = BENCH / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(summarize(name, out), indent=1) + "\n")
    return path


def _git_commit() -> str:
    if not (ROOT / ".git").exists():   # an exported checkout
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: 101/201-site grids and 2-point operations")
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up time and exit")
    ap.add_argument("--write-reference", action="store_true",
                    help="store the default-seed reference outputs")
    args = ap.parse_args(argv)

    if args.setup_only:
        print(json.dumps({"setup_s": setup()}))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.write_reference:
        print(write_reference(args.workload))
        return 0

    result, env = benchmark(args.workload, args.seed, args.seconds,
                            bool(args.trace), size=args.size)
    print("# env " + json.dumps(env))
    for k, m in result["metrics"].items():
        print(f"# {args.workload:<12} {k:<46} {m['value']:.6g} {m['unit']}")
    print(f"# {args.workload:<12} {'ops_failed_frac':<46} "
          f"{env['ops_failed_frac']:.6g} frac ({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
