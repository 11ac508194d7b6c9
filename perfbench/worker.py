"""One workload process: set up, run passes, check the outputs, report.

run.py starts this with BLAS threads pinned in the environment and
lqsolve on PYTHONPATH, and reads the JSON it writes to --out.  With
--setup-only it stops once set-up is done, so run.py can time several
set-ups.  With --trace 1 it runs one untraced and one traced pass and
reports the per-layer metrics of the traced one; otherwise it runs
passes for --seconds, with the calibration kernel run before each step.
"""

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import workloads
from lqsolve import solvers
from lqsolve.prox import ProxParams, prox_scalar, prox_vector
from recorder import Recorder, self_times

PROX_REPEATS = 5
# Input of the calibration kernel: the shape of the paper's A, and a residual.
_CALIBRATION = (np.random.default_rng(0).standard_normal((250, 500)),
                np.random.default_rng(1).standard_normal(250))


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work-dir", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    return ap.parse_args()


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "sweep_backend": solvers._sweep.__name__,
    }


def calibration_kernel():
    """Seconds taken by a fixed piece of work shaped like a cyclic sweep of
    the pure-Python backend: per column, a strided dot product and a few
    scalar float operations.  It uses numpy only, so no change to the
    program changes it; run between the steps of a pass, it measures how
    fast the shared machine runs this kind of code at that moment.  Its
    input is first read into the cache, as the sweep finds A after the
    first sweep, so the time does not depend on what the step before it
    left in the cache."""
    a, r = _CALIBRATION
    a.sum(), r.sum()
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(a.shape[1]):
        v = abs(0.01 * np.dot(a[:, i], r)) + 1.0
        for _ in range(8):
            v -= 0.1 * (v - 1.0 / v)
        acc += v
    return time.perf_counter() - t0


def run_pass(workload, recorder, out):
    recorder.reset()
    out.mkdir(parents=True)
    t0 = time.perf_counter()
    with recorder.span("bench.pass"):
        result = workload.run(out)
    steps, calibration = list(recorder.steps), list(recorder.calibration)
    wall = time.perf_counter() - t0 - sum(calibration)
    failures = workload.check(result, out)
    del result
    solves = recorder.solves
    counters = {
        "solvers.gaita_sweeps": sum(s["sweeps"] for s in solves if s["algorithm"] == "gaita"),
        "solvers.jaita_steps": sum(s["sweeps"] for s in solves if s["algorithm"] == "jaita"),
        "core.spectral_norm_sq_calls": recorder.calls.get("core.spectral_norm_sq", 0),
        "solvers.trace_rows": sum(s["rows"] for s in solves),
        "cli.bytes_written": sum(f.stat().st_size for f in out.rglob("*") if f.is_file()),
    }
    shutil.rmtree(out)
    return {"wall_s": wall, "solves": solves, "counters": counters,
            "failures": failures, "calls": dict(recorder.calls), "steps": steps,
            "calibration": calibration,
            "bytes_read": recorder.bytes_read}


def _median_seconds(fn):
    times = []
    for _ in range(PROX_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def prox_timings(samples):
    """Time the prox operators on forward steps z = x - mu A^T (A x - y) taken
    at the start (x = 0) and at the limit of each solve of the traced pass.

    The scalar prox runs inside the sweep, N calls per sweep, where a
    wrapper would distort it; so it is timed here on the workload's own
    inputs.  The vector prox takes the Jacobi z of the jaita solves, or of
    the gaita solves where the workload runs no jaita.
    """
    scalar, vector = [], []
    has_jaita = any(s[0] == "jaita" for s in samples)
    for algorithm, p, mu, x in samples:
        params = ProxParams(c=p.lam * mu, q=p.q)
        for xs in (np.zeros(p.n), x):
            z = xs - mu * (p.A.T @ (p.A @ xs - p.y))
            if algorithm == "gaita":
                scalar.append((params, z.tolist(), xs.tolist()))
            if algorithm == "jaita" or not has_jaita:
                vector.append((params, z, xs))

    def run_scalar():
        for params, zs, xs in scalar:
            for z, x_prev in zip(zs, xs):
                prox_scalar(z, x_prev, params)

    def run_vector():
        for params, z, xs in vector:
            prox_vector(z, xs, params)

    calls = sum(len(zs) for _, zs, _ in scalar)
    elems = sum(z.size for _, z, _ in vector)
    return {"prox.scalar_ns": _median_seconds(run_scalar) / calls * 1e9,
            "prox.scalar_calls_timed": calls,
            "prox.vector_ns_per_elem": _median_seconds(run_vector) / elems * 1e9,
            "prox.vector_elems_timed": elems}


def layer_metrics(spans, setup_spans, traced, untraced, samples):
    """Per-layer metrics of the traced pass.  None marks a layer this
    workload does not call."""
    incl, self_s = {}, {}
    layers = {}
    for (name, start, end, _), s in zip(spans, self_times(spans)):
        incl[name] = incl.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + s
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + s
    setup_generate = sum(end - start for name, start, end, _ in setup_spans
                         if name == "harness.generate_instance")

    solves = traced["solves"]
    counters = traced["counters"]
    calls = traced["calls"]
    wall = traced["wall_s"]
    updates = sum(s["sweeps"] * s["n"] for s in solves if s["algorithm"] == "gaita")
    steps = counters["solvers.jaita_steps"]
    recorded = sum(s["rows"] - 1 for s in solves)

    def called(name, value):
        return value if name in incl else None

    gaita_s = self_s.get("solvers.gaita_run", 0.0)
    jaita_s = called("solvers.jaita_run", self_s.get("solvers.jaita_run"))
    io_s = incl.get("cli.write_array", 0.0) + incl.get("cli.read_array", 0.0)
    m = {
        "solvers.gaita_s": gaita_s,
        "solvers.gaita_sweeps": counters["solvers.gaita_sweeps"],
        "solvers.gaita_us_per_update": gaita_s / updates * 1e6,
        "solvers.jaita_self_s": jaita_s,
        "solvers.jaita_steps": steps,
        "solvers.jaita_ms_per_step": jaita_s / steps * 1e3 if jaita_s is not None else None,
        "solvers.zero_step_sweep_frac":
            sum(s["zero_step_rows"] for s in solves) / recorded if recorded else 0.0,
        "solvers.trace_rows": counters["solvers.trace_rows"],
        "solvers.trace_retained_mib": sum(s["retained_bytes"] for s in solves) / 2**20,
        "core.spectral_norm_sq_calls": counters["core.spectral_norm_sq_calls"],
        "core.spectral_norm_sq_s": called("core.spectral_norm_sq", incl.get("core.spectral_norm_sq")),
        "core.l_max_calls": calls.get("core.l_max", 0),
        "diagnostics.check_stationary_s":
            called("diagnostics.check_stationary", incl.get("diagnostics.check_stationary")),
        "diagnostics.certify_s":
            called("diagnostics.certify_local_min", incl.get("diagnostics.certify_local_min")),
        "harness.generate_instance_s": incl.get("harness.generate_instance", 0.0) + setup_generate,
        "harness.run_experiment_self_s":
            called("harness.run_experiment", self_s.get("harness.run_experiment")),
        "cli.io_s": io_s if ("cli.write_array" in incl or "cli.read_array" in incl) else None,
        "cli.bytes_written": counters["cli.bytes_written"],
        "cli.bytes_read": traced["bytes_read"],
        # shares of the traced pass's wall time; 0 where the layer is not called
        "solvers.gaita_share": gaita_s / wall,
        "solvers.jaita_self_share": (jaita_s or 0.0) / wall,
        "core.spectral_norm_sq_share": incl.get("core.spectral_norm_sq", 0.0) / wall,
        "diagnostics.share": layers.get("diagnostics", 0.0) / wall,
        "harness.run_experiment_self_share": self_s.get("harness.run_experiment", 0.0) / wall,
        "cli.io_share": io_s / wall,
        "trace.overhead_s": wall - untraced["wall_s"],
        "trace.overhead_frac": (wall - untraced["wall_s"]) / untraced["wall_s"],
    }
    m.update({f"layer.{name}.self_s": s for name, s in sorted(layers.items())})
    m.update(prox_timings(samples))
    return m


def main():
    args = parse_args()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    recorder = Recorder()
    recorder.install()
    recorder.spans_on = bool(args.trace)
    with recorder.span("bench.setup"):
        workload.setup()
    recorder.spans_on = False
    workloads.warm_up()
    ready = time.monotonic()
    report = {"ready": ready}
    if not args.setup_only:
        setup_spans, recorder.spans = recorder.spans, []
        pass_dir = args.work_dir / "pass"
        passes = []
        if args.trace:
            passes.append(run_pass(workload, recorder, pass_dir))
            recorder.spans_on = True
            passes.append(run_pass(workload, recorder, pass_dir))
            recorder.spans_on = False
            report["layers"] = layer_metrics(recorder.spans, setup_spans, passes[1],
                                             passes[0], recorder.samples)
            report["spans"] = {"setup": setup_spans, "pass": recorder.spans}
        else:
            # at least two passes, for the determinism check; then only
            # passes that are expected to end within --seconds
            recorder.before_step = calibration_kernel
            for _ in range(3):   # the first runs are slower; they are not kept
                calibration_kernel()
            t0 = time.perf_counter()
            while (len(passes) < 2 or time.perf_counter() - t0 + passes[-1]["wall_s"]
                   <= args.seconds):
                passes.append(run_pass(workload, recorder, pass_dir))
        report.update(
            passes=passes,
            env=environment(),
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    args.out.write_text(json.dumps(report))


if __name__ == "__main__":
    main()
