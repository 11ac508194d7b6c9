"""lqsolve benchmark: one workload, measured end to end or layer by layer.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  Each workload runs in fresh worker processes with BLAS pinned to
BLAS_THREADS threads: SETUP_SAMPLES - 1 processes that only set up, then
one that also runs as many passes as fit in --seconds (at least two).
The report lines come first; the last line of standard output is a JSON
object with keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics of BENCHMARK.json with
--trace 1.  The exit code is 0 only when every output check passed.
--smoke shrinks every workload to a tiny instance, for tests.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("paper", "noisy_capped", "large")
BLAS_THREADS = 1
SETUP_SAMPLES = 9
DEADLINE_S = 170          # every worker has ended by then, or the run fails
# Exact work counters: the same code and seed must reproduce them.
COUNTERS = ("solvers.gaita_sweeps", "solvers.jaita_steps",
            "core.spectral_norm_sq_calls", "solvers.trace_rows", "cli.bytes_written")
UNMEASURED = {
    "prox self time inside a sweep":
        "prox_scalar is called N times per sweep from inside the sweep kernel; a "
        "wrapper there would distort it, so prox.* are timed on harvested inputs",
    "sweep residual refresh and objective":
        "computed inside gaita_run with no module-level call to wrap; they are part "
        "of solvers.gaita_s",
    "waiting time per layer":
        "the program is single-threaded Python on top of BLAS, so no layer waits on "
        "another; no wait metric is reported",
    "cli.bytes_read of manifest.json":
        "load_instance opens it directly, not through cli.read_array",
}
# checked in order, so a longer suffix comes before its tail
UNITS = {"_per_calib": "1/calib", "_calib": "calib",
         "_per_s": "1/s", "_ns_per_elem": "ns", "_us_per_update": "us", "_ms_per_step": "ms",
         "_ns": "ns", "_s": "s", "_mib": "MiB", "_frac": "frac", "_share": "frac"}


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances, for the benchmark's own tests")
    return ap.parse_args()


def unit_of(name):
    if name == "diagnostics.share":
        return "frac"
    if ".bytes_" in name:
        return "B"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def git_state():
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip()
    return {"git_sha": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def source_hash():
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py"), HERE / "references.json"]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def start_worker(args, work_dir, out, setup_only, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work-dir", str(work_dir), "--out", str(out)]
    if args.smoke:
        argv.append("--smoke")
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    report = json.loads(out.read_text())
    report["setup_s"] = report["ready"] - spawned
    return report


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / len(ordered),
            "samples": len(ordered)}


def step_medians(per_pass):
    """Per pass, the seconds of the same sequence of steps; returns each
    step's median over the passes."""
    return [statistics.median(column) for column in zip(*per_pass)]


def end_to_end(report, setups):
    """wall_s and the solve rates describe a typical pass: each step (a
    top-level call, or a solve) is taken at its median over the run's
    passes, and a pass is the sum of its steps.  Every pass does the same
    work, so a step's samples differ only by how busy the shared machine
    was; a slow spell that hits part of one pass then moves the result
    less than it moves that pass's total.

    A slow spell that lasts the whole run moves all of them, so the
    bounded metrics are in units of the calibration kernel's median time
    over the run (calib): the kernel ran before every step, on the same
    machine at the same moments."""
    passes = report["passes"]
    steps = [[seconds for _, seconds in p["steps"]] for p in passes]
    outside = [p["wall_s"] - sum(s) for p, s in zip(passes, steps)]
    m = {"setup_s": statistics.median(setups),
         "wall_s": sum(step_medians(steps)) + statistics.median(outside),
         "pass_wall_s": statistics.median(p["wall_s"] for p in passes)}
    for alg in ("gaita", "jaita"):
        per_pass = [[s for s in p["solves"] if s["algorithm"] == alg] for p in passes]
        if not per_pass[0]:
            continue
        seconds = [s["seconds"] for solves in per_pass for s in solves]
        m[f"{alg}.solve_s"] = statistics.median(seconds)
        m[f"{alg}.solve_s.tail"] = tail(seconds)
        m[f"{alg}.solve_count"] = len(seconds)
        work = sum(s["sweeps"] * (s["n"] if alg == "gaita" else 1) for s in per_pass[0])
        typical = sum(step_medians([[s["seconds"] for s in solves] for solves in per_pass]))
        m["gaita.updates_per_s" if alg == "gaita" else "jaita.steps_per_s"] = work / typical
    calib = statistics.median(c for p in passes for c in p["calibration"])
    m["calib.kernel_s"] = calib
    m["wall_calib"] = m["wall_s"] / calib
    m["gaita.updates_per_calib"] = m["gaita.updates_per_s"] * calib
    m["peak_rss_mib"] = report["peak_rss_mib"]
    return m


def check_counters(args, passes, state_dir):
    """Counters, and the sequence of top-level calls, must agree across the
    passes of this run; the counters also with any earlier run of the same
    code, workload, seed and size in this checkout."""
    failures = []
    first = {k: passes[0]["counters"][k] for k in COUNTERS}
    names = [name for name, _ in passes[0]["steps"]]
    for i, p in enumerate(passes[1:], 1):
        if [name for name, _ in p["steps"]] != names:
            failures.append(f"pass {i} made other top-level calls than pass 0")
    for i, p in enumerate(passes[1:], 1):
        diff = {k: (first[k], p["counters"][k]) for k in COUNTERS if p["counters"][k] != first[k]}
        if diff:
            failures.append(f"pass {i} counters differ from pass 0: {diff}")
    size = "smoke" if args.smoke else "full"
    record = state_dir / "counters" / f"{args.workload}-{size}-seed{args.seed}-{source_hash()}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        if earlier != first:
            failures.append(f"counters differ from an earlier run of the same code: "
                            f"{earlier} vs {first}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(first, sort_keys=True))
    return failures


def fmt(value, unit):
    if value is None:
        return "not run on this workload"
    if isinstance(value, int):
        return f"{value} {unit}"
    return f"{value:.6g} {unit}"


def main():
    args = parse_args()
    if not (SRC / "lqsolve" / "__init__.py").is_file():
        print(f"error: no lqsolve sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    state_dir = ROOT / ".perfbench_out"
    work_dir = state_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [start_worker(args, work_dir, work_dir / f"setup{i}.json", True,
                               deadline)["setup_s"]
                  for i in range(SETUP_SAMPLES - 1)]
        report = start_worker(args, work_dir, work_dir / "run.json", False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setups.append(report["setup_s"])

    passes = report["passes"]
    failures = [f for p in passes for f in p["failures"]] + check_counters(args, passes, state_dir)
    attempted = sum(len(p["solves"]) for p in passes)
    env = dict(report["env"], nproc=os.cpu_count(), blas_threads_pinned=BLAS_THREADS,
               **git_state())

    print(f"# lqsolve benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}{' smoke' if args.smoke else ''}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# passes {len(passes)}, wall_s "
          + " ".join(f"{p['wall_s']:.4f}" for p in passes))
    print("# counters per pass " + json.dumps(passes[0]["counters"]))
    for f in failures:
        print(f"# FAILED CHECK: {f}")
    print(f"{'failed_frac':36s} {len(failures) / attempted:.6g} frac "
          f"({len(failures)} failed checks / {attempted} solves)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        layers = report["layers"]
        spans_file = state_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            {phase: [dict(zip(("name", "start", "end", "parent"), s)) for s in spans]
             for phase, spans in report["spans"].items()}))
        print(f"# spans written to {spans_file.relative_to(ROOT)}")
        for name, value in layers.items():
            print(f"{name:36s} {fmt(value, unit_of(name))}")
        for what, why in UNMEASURED.items():
            print(f"# unmeasured: {what}: {why}")
        values, wanted = layers, spec["per_layer"]
    else:
        e2e = end_to_end(report, setups)
        for name, value in e2e.items():
            if name.endswith(".tail"):
                text = (f"p{value['percentile']:.1f} = {value['value']:.6g} s "
                        f"({value['samples']} samples, 10 beyond)" if value
                        else "n/a (fewer than 11 solves)")
                print(f"{name:36s} {text}")
            else:
                print(f"{name:36s} {fmt(value, unit_of(name))}")
        values, wanted = e2e, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
