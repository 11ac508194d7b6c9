"""Command-line front end.

Subcommands: gen | solve | compare | sweep | prox-eval | certify.
Outputs are plain-text CSV (one-line "rows,cols" header for arrays,
17-significant-digit floats) plus JSON summaries that echo the fully
resolved configuration, so any result can be regenerated from its own
output.  Exit codes: 0 success (including did-not-converge, which is
reported in the JSON), 2 bad configuration, 3 I/O failure (including an
instance file whose bytes do not match the sha256 in its manifest), 4
certify ran on a non-stationary point.
"""

import argparse
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, harness, solvers
from .core import format_float
from .errors import CorruptFile, LqsolveError
from .prox import ProxParams, prox_scalar

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_IO = 3
EXIT_NOT_STATIONARY = 4


# ---------------------------------------------------------------------------
# array file format: first line "rows,cols", then one CSV row per matrix row

def write_array(path, a):
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    with open(path, "w") as fh:
        fh.write(f"{a.shape[0]},{a.shape[1]}\n")
        for row in a:
            fh.write(",".join(format_float(v) for v in row) + "\n")


def read_array(path, sha256=None):
    """Read an array file once; when ``sha256`` is given, the bytes read must
    have that digest, and those same bytes are parsed."""
    data = Path(path).read_bytes()
    if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
        raise CorruptFile(f"{path}: its sha256 is not the one recorded in manifest.json")
    fh = io.BytesIO(data)
    rows, cols = (int(t) for t in fh.readline().split(b","))
    a = np.loadtxt(fh, delimiter=",", ndmin=2)
    if a.shape != (rows, cols):
        raise LqsolveError(f"{path}: header says {rows}x{cols}, data is {a.shape}")
    return a


def write_vector(path, v):
    write_array(path, np.asarray(v).reshape(-1, 1))


def read_vector(path, sha256=None):
    return read_array(path, sha256).reshape(-1)


def _file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _spec_hash(spec_dict):
    canon = json.dumps(spec_dict, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# instance I/O

INSTANCE_FILES = {"matrix": "A.csv", "observation": "y.csv",
                  "ground_truth": "x_true.csv"}


def save_instance(out_dir, inst):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_array(out_dir / INSTANCE_FILES["matrix"], inst.A)
    write_vector(out_dir / INSTANCE_FILES["observation"], inst.y)
    write_vector(out_dir / INSTANCE_FILES["ground_truth"], inst.x_true)
    spec_dict = {
        "m": inst.spec.m, "n": inst.spec.n, "k_star": inst.spec.k_star,
        "column_normalize": inst.spec.column_normalize,
        "snr_db": inst.spec.snr_db, "seed": inst.spec.seed,
    }
    sha256 = {name: _file_sha256(out_dir / name) for name in INSTANCE_FILES.values()}
    manifest = {"files": INSTANCE_FILES, "spec": spec_dict, "sha256": sha256,
                "seed": inst.spec.seed, "spec_hash": _spec_hash(spec_dict)}
    _write_json(out_dir / "manifest.json", manifest)
    return manifest


def load_instance(instance_dir):
    instance_dir = Path(instance_dir)
    with open(instance_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    recorded = manifest.get("sha256", {})

    def read(kind, reader):
        name = manifest["files"][kind]
        if name not in recorded:
            raise CorruptFile(f"{instance_dir / name}: manifest.json records no "
                              "sha256 for it")
        return reader(instance_dir / name, recorded[name])

    spec = harness.InstanceSpec(
        m=manifest["spec"]["m"], n=manifest["spec"]["n"],
        k_star=manifest["spec"]["k_star"],
        column_normalize=manifest["spec"]["column_normalize"],
        snr_db=manifest["spec"]["snr_db"], seed=manifest["spec"]["seed"])
    return harness.GeneratedInstance(
        spec=spec, A=read("matrix", read_array), y=read("observation", read_vector),
        x_true=read("ground_truth", read_vector))


# ---------------------------------------------------------------------------
# argument plumbing

def _out_dir(args):
    if args.out_dir is not None:
        return Path(args.out_dir)
    return Path(os.environ.get("LQSOLVE_OUT_DIR", "."))


def _load_config_file(args):
    if getattr(args, "config", None) is None:
        return {}
    with open(args.config) as fh:
        return json.load(fh)


def _resolved(args, file_cfg, fields):
    """Defaults < config file < explicit flags (argparse defaults are None)."""
    out = {}
    for name, default in fields.items():
        value = getattr(args, name, None)
        if value is None:
            value = file_cfg.get(name, default)
        out[name] = value
    return out


def _instance_from(cfg):
    if cfg.get("instance_dir"):
        return load_instance(cfg["instance_dir"])
    spec = harness.InstanceSpec(
        m=cfg["m"], n=cfg["n"], k_star=cfg["k"],
        column_normalize=cfg["column_normalize"],
        snr_db=cfg["snr_db"], seed=cfg["seed"])
    return harness.generate_instance(spec)


# ---------------------------------------------------------------------------
# subcommands

GEN_FIELDS = {"m": 250, "n": 500, "k": 15, "snr_db": None,
              "column_normalize": True, "seed": 0}


def cmd_gen(args):
    cfg = _resolved(args, _load_config_file(args), GEN_FIELDS)
    manifest = save_instance(_out_dir(args), _instance_from(cfg))
    if not args.quiet:
        print(f"instance written to {_out_dir(args)} (hash {manifest['spec_hash'][:12]})")
    return EXIT_OK


SOLVE_FIELDS = dict(
    GEN_FIELDS, instance_dir=None, algorithm="gaita", lam=0.001, q=0.5,
    mu=None, max_sweeps=10_000, stop="iterate_change", tol=1e-10,
    record_every=1)


def _build_solver_config(cfg, inst):
    mu = cfg["mu"]
    if mu is None:
        mu = solvers.default_mu(cfg["algorithm"], inst.A)
    if cfg["stop"] == "iterate_change":
        stop = solvers.IterateChange(cfg["tol"])
    elif cfg["stop"] == "rmse":
        stop = solvers.RmseVsReference(cfg["tol"])
    elif cfg["stop"] == "cap":
        stop = solvers.SweepCapOnly()
    else:
        raise LqsolveError(f"unknown stop rule {cfg['stop']!r}")
    return solvers.SolverConfig(
        mu=mu, max_sweeps=cfg["max_sweeps"], stop_rule=stop,
        record_every=cfg["record_every"],
        reference=inst.x_true if np.any(inst.x_true) else None), mu


def cmd_solve(args):
    cfg = _resolved(args, _load_config_file(args), SOLVE_FIELDS)
    inst = _instance_from(cfg)
    p = inst.problem(cfg["lam"], cfg["q"])
    sconf, mu = _build_solver_config(cfg, inst)
    run = solvers.gaita_run if cfg["algorithm"] == "gaita" else solvers.jaita_run
    state, trace = run(p, np.zeros(p.n), sconf)

    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out_dir / "trace.csv")
    report = diagnostics.check_stationary(p, state.x, mu)
    summary = {
        "config": dict(cfg, mu=mu),
        "flags": trace.flags,
        "final_objective": state.objective,
        "final_rmse": harness.rmse(state.x, sconf.reference)
        if sconf.reference is not None else None,
        "support_size": int(np.count_nonzero(state.x)),
        "stationarity": report.to_dict(),
    }
    _write_json(out_dir / "summary.json", summary)
    write_vector(out_dir / "solution.csv", state.x)
    if not args.quiet:
        status = "converged" if trace.flags["converged"] else (
            "diverged" if trace.flags["diverged"] else "did not converge")
        backend = (f" (sweep: {solvers.sweep_backend()})"
                   if cfg["algorithm"] == "gaita" else "")
        print(f"{cfg['algorithm']} {status} after {trace.flags['sweeps']} sweeps"
              f"{backend}; outputs in {out_dir}")
    return EXIT_OK


PRESET_FIELDS = {"seed": 0, "m": None, "n": None, "k_star": None, "lam": None,
                 "max_sweeps": None}


def _run_preset(args, preset):
    """Run a preset under the overrides given by flag or config file (--k
    sets k_star); write {preset}_result.json and return (result, out_dir)."""
    flags = argparse.Namespace(**dict(vars(args), k_star=args.k))
    cfg = _resolved(flags, _load_config_file(args), PRESET_FIELDS)
    seed = cfg.pop("seed")
    overrides = {name: value for name, value in cfg.items() if value is not None}
    result = harness.run_experiment(preset, overrides, seed)

    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{preset}_result.json", "w") as fh:
        fh.write(result.to_json())
        fh.write("\n")
    return result, out_dir


def _ragged_csv(path, columns):
    """Write {name: list} as aligned columns keyed by row index (sweep)."""
    names = list(columns)
    length = max(len(v) for v in columns.values())
    with open(path, "w") as fh:
        fh.write("sweep," + ",".join(names) + "\n")
        for s in range(length):
            cells = [str(s)]
            for name in names:
                vals = columns[name]
                cells.append(format_float(vals[s]) if s < len(vals) else "")
            fh.write(",".join(cells) + "\n")


def cmd_compare(args):
    result, out_dir = _run_preset(args, args.preset)
    csv_path = out_dir / f"{args.preset}_traces.csv"
    if args.preset == "fig4":
        with open(csv_path, "w") as fh:
            fh.write("mu,algorithm,converged,diverged,sweeps\n")
            for run in result.runs:
                fh.write(f"{format_float(run.mu)},{run.algorithm},{run.converged},"
                         f"{run.diverged},{run.sweeps}\n")
    else:
        columns = {}
        for run in result.runs:
            key = f"{run.algorithm}_q{run.q:g}"
            columns[f"{key}_objective"] = run.objective_trace
            if run.error_trace:
                columns[f"{key}_error"] = run.error_trace
        _ragged_csv(csv_path, columns)
    if not args.quiet:
        print(f"{args.preset} results in {out_dir}")
    return EXIT_OK


def cmd_sweep(args):
    result, out_dir = _run_preset(args, "mu_sweep")
    with open(out_dir / "mu_sweep_cells.csv", "w") as fh:
        fh.write("q,mu,sweeps,converged,final_rmse\n")
        for run in result.runs:
            fh.write(f"{format_float(run.q)},{format_float(run.mu)},{run.sweeps},"
                     f"{run.converged},{format_float(run.final_rmse)}\n")
    if not args.quiet:
        reached = sum(run.converged for run in result.runs)
        print(f"mu sweep: {reached}/{len(result.runs)} cells reached the "
              f"RMSE target; results in {out_dir}")
    return EXIT_OK


def cmd_prox_eval(args):
    params = ProxParams(c=args.lambda_mu, q=args.q)
    tau, eta = params.tau, params.eta
    print(f"q={args.q:g} c={args.lambda_mu:g} tau={tau!r} eta={eta!r}")
    print("z,prox")
    for z in args.z:
        if abs(z) == tau:
            nonzero = prox_scalar(z, 1.0, params)
            zero = prox_scalar(z, 0.0, params)
            print(f"{format_float(z)},{format_float(nonzero)} (x_prev!=0) / "
                  f"{format_float(zero)} (x_prev=0)")
        else:
            print(f"{format_float(z)},{format_float(prox_scalar(z, 0.0, params))}")
    return EXIT_OK


def _certify_problem(cfg, solution, inst):
    """Fill in lam, q and mu that no flag or config file gave, from the
    summary.json `solve` wrote next to the solution, else solve's defaults,
    and say where each came from.  Stationarity depends on all three, so a
    solution is checked on the problem that produced it whenever known."""
    summary = solution.parent / "summary.json"
    solved = {}
    if summary.exists():
        with open(summary) as fh:
            solved = json.load(fh)["config"]
    sources = {}
    for name in ("lam", "q", "mu"):
        if cfg[name] is not None:
            source = "option"
        elif name in solved:
            cfg[name], source = float(solved[name]), "summary.json"
        elif name == "mu":
            cfg[name], source = solvers.default_mu("gaita", inst.A), "default 0.95/L_max"
        else:
            cfg[name] = SOLVE_FIELDS[name]
            source = f"default {cfg[name]:g}"
        sources[f"{name}_source"] = source
    return sources


CERTIFY_FIELDS = {"lam": None, "q": None, "mu": None, "tol": 1e-6,
                  "instance_dir": None}


def cmd_certify(args):
    cfg = _resolved(args, _load_config_file(args), CERTIFY_FIELDS)
    if cfg["instance_dir"] is None:
        raise LqsolveError("certify requires --instance-dir")
    inst = load_instance(cfg["instance_dir"])
    x = read_vector(args.solution)
    sources = _certify_problem(cfg, Path(args.solution), inst)
    p = inst.problem(cfg["lam"], cfg["q"])

    report = diagnostics.check_stationary(p, x, cfg["mu"], cfg["tol"])
    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = dict(sources, config=cfg, stationarity=report.to_dict(),
                   certificate=None)
    if report.is_stationary:
        cert = diagnostics.certify_local_min(p, x, cfg["mu"], cfg["tol"])
        payload["certificate"] = cert.to_dict()
    _write_json(out_dir / "certificate.json", payload)
    if not args.quiet:
        print(json.dumps(payload, indent=2, sort_keys=True))
    if not report.is_stationary:
        return EXIT_NOT_STATIONARY
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_common(sp):
    sp.add_argument("--config", help="JSON file with default option values")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out-dir", default=None,
                    help="output directory (default: $LQSOLVE_OUT_DIR or .)")
    sp.add_argument("--quiet", action="store_true")


def _add_size_flags(sp):
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)


def _add_instance_flags(sp):
    _add_size_flags(sp)
    sp.add_argument("--snr-db", dest="snr_db", type=float, default=None)
    sp.add_argument("--no-column-normalize", dest="column_normalize",
                    action="store_false", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lqsolve",
        description="lq (0<q<1) regularized least-squares solvers and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a synthetic instance")
    _add_common(sp)
    _add_instance_flags(sp)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("solve", help="run one solver on an instance")
    _add_common(sp)
    _add_instance_flags(sp)
    sp.add_argument("--instance-dir", default=None,
                    help="directory produced by `lqsolve gen`")
    sp.add_argument("--algorithm", choices=("gaita", "jaita"), default=None)
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--max-sweeps", dest="max_sweeps", type=int, default=None)
    sp.add_argument("--stop", choices=("iterate_change", "rmse", "cap"),
                    default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--record-every", dest="record_every", type=int, default=None)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("compare", help="run a preset comparison experiment")
    _add_common(sp)
    _add_size_flags(sp)
    sp.add_argument("--preset", choices=("fig1", "fig3", "fig4"), required=True)
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--max-sweeps", dest="max_sweeps", type=int, default=None)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("sweep", help="run the (mu, q) recovery sweep")
    _add_common(sp)
    _add_size_flags(sp)
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--max-sweeps", dest="max_sweeps", type=int, default=None)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("prox-eval", help="evaluate the thresholding operator")
    _add_common(sp)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--lambda-mu", dest="lambda_mu", type=float, required=True,
                    help="the product lambda*mu")
    sp.add_argument("--z", type=float, nargs="+", required=True)
    sp.set_defaults(func=cmd_prox_eval)

    sp = sub.add_parser("certify", help="stationarity + local-min certificates")
    _add_common(sp)
    sp.add_argument("--solution", required=True, help="vector CSV file")
    sp.add_argument("--instance-dir", default=None)
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.set_defaults(func=cmd_certify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except OSError as exc:  # before LqsolveError: CorruptFile is both
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (LqsolveError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
