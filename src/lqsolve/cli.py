"""Command-line front end.

Subcommands: gen | solve | compare | sweep | prox-eval | certify.
Outputs are plain-text CSV (one-line "rows,cols" header for arrays,
17-significant-digit floats) plus JSON summaries that echo the fully
resolved configuration, so any result can be regenerated from its own
output.  The parser holds every option's default, type and choices;
solve's --max-sweeps, --stop, --tol and --record-every read theirs from
solvers.SolverConfig, which also checks their values and --mu's as soon
as they are parsed (a negative or NaN --tol, say).
`--config FILE` (gen, solve, compare, sweep, certify) reads a JSON object
whose keys are that subcommand's option dests (`k_star` for compare's and
sweep's `--k`); each value becomes its flag, placed before the command
line's own flags, which therefore win, and null leaves an option at its
default.  Exit codes: 0 success (including did-not-converge, which is
reported in the JSON), 2 bad configuration (a bad flag, a config file with
an unknown key or a bad value, or a JSON or array file that does not
read), 3 I/O failure (including an instance file whose bytes do not match
the sha256 in its manifest), 4 certify ran on a non-stationary point.
"""

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import _csweep, diagnostics, harness, solvers
from .core import format_float, write_rows
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
    # repr of a Python float is format_float, without a call per cell; one
    # row of Python floats at a time
    write_rows(path, f"{a.shape[0]},{a.shape[1]}", (map(repr, row.tolist()) for row in a))


_NON_BLANK = re.compile(rb"\S")
# the blanks the body allows around a field, and ASCII digits only
_HEADER = re.compile(rb"[ \t\r]*([0-9]+)[ \t\r]*,[ \t\r]*([0-9]+)[ \t\r]*\n?")


def read_array(path, sha256=None):
    """Read an array file once; when ``sha256`` is given, the bytes read must
    have that digest, and those same bytes are parsed.

    The C kernel's lq_parse reads the body, each field to the bits float()
    gives it, in the forms README.md lists; anything else fails with one
    line naming the path, the data row and the field, both counted from 1."""
    data = Path(path).read_bytes()
    if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
        raise CorruptFile(f"{path}: its sha256 is not the one recorded in manifest.json")
    if _NON_BLANK.search(data) is None:
        raise LqsolveError(f"{path}: the file is empty")
    newline = data.find(b"\n")
    body = len(data) if newline < 0 else newline + 1
    header = _HEADER.fullmatch(data, 0, body)
    if header is None:
        raise LqsolveError(f"{path}: the first line is not 'rows,cols'")
    rows, cols = (int(t) for t in header.groups())
    if _NON_BLANK.search(data, body) is None:
        raise LqsolveError(f"{path}: header says {rows}x{cols}, but no data rows follow")
    # every field takes a byte at least, so this also bounds the allocation
    if rows < 1 or cols < 1 or rows * cols > len(data):
        raise LqsolveError(f"{path}: header says {rows}x{cols}, not 1 to {len(data)} fields")
    a = np.empty((rows, cols))
    pos = ctypes.c_int64(body)
    k = _csweep.lq_parse(data, len(data), pos, rows, cols, a.ctypes.data)
    if k >= 0:
        row, field = divmod(k, cols)
        expected = ("the end of the data" if k == rows * cols else "a finite number, then "
                    + ("a comma" if field + 1 < cols else "the end of the row"))
        found = data[pos.value:].split(b"\n", 1)[0].strip().decode(errors="replace")
        raise LqsolveError(f"{path}: row {row + 1}, field {field + 1}: expected "
                           f"{expected}, found {found[:40]!r}")
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


def _read_json(path):
    """The JSON object in the file at path; any other content fails with
    one line naming the file."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise LqsolveError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise LqsolveError(f"{path}: not a JSON object")
    return obj


@contextlib.contextmanager
def _blaming(path):
    """A key missing from the JSON read from path, or a value of the wrong
    type or range, fails with one line naming the file."""
    try:
        yield
    except KeyError as exc:
        raise LqsolveError(f"{path}: no key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise LqsolveError(f"{path}: {exc}") from None


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# instance I/O

INSTANCE_FILES = {"matrix": "A.csv", "observation": "y.csv",
                  "ground_truth": "x_true.csv"}
SPEC_FIELDS = {f.name for f in dataclasses.fields(harness.InstanceSpec)}


def save_instance(out_dir, inst):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_array(out_dir / INSTANCE_FILES["matrix"], inst.A)
    write_vector(out_dir / INSTANCE_FILES["observation"], inst.y)
    write_vector(out_dir / INSTANCE_FILES["ground_truth"], inst.x_true)
    spec_dict = dataclasses.asdict(inst.spec)
    sha256 = {name: _file_sha256(out_dir / name) for name in INSTANCE_FILES.values()}
    manifest = {"files": INSTANCE_FILES, "spec": spec_dict, "sha256": sha256,
                "seed": inst.spec.seed, "spec_hash": _spec_hash(spec_dict)}
    _write_json(out_dir / "manifest.json", manifest)
    return manifest


def load_instance(instance_dir):
    instance_dir = Path(instance_dir)
    path = instance_dir / "manifest.json"
    manifest = _read_json(path)
    with _blaming(path):
        names = {kind: manifest["files"][kind] for kind in INSTANCE_FILES}
        recorded = {kind: manifest.get("sha256", {}).get(name)
                    for kind, name in names.items()}
        files = {kind: instance_dir / name for kind, name in names.items()}
        odd = sorted(set(manifest["spec"]) ^ SPEC_FIELDS)
        if odd:
            raise LqsolveError(f"{path}: spec fields missing or unknown: "
                               f"{', '.join(odd)}")
        spec = harness.InstanceSpec(**manifest["spec"])
        if manifest["spec_hash"] != _spec_hash(dataclasses.asdict(spec)):
            raise LqsolveError(f"{path}: spec_hash is not the hash of its spec")

    def read(kind, reader):
        if recorded[kind] is None:
            raise CorruptFile(f"{files[kind]}: manifest.json records no sha256 for it")
        return reader(files[kind], recorded[kind])

    inst = harness.GeneratedInstance(
        spec=spec, A=read("matrix", read_array), y=read("observation", read_vector),
        x_true=read("ground_truth", read_vector))
    (m, n), sizes = inst.A.shape, (inst.y.size, inst.x_true.size)
    if (m, n, *sizes) != (spec.m, spec.n, spec.m, spec.n):
        raise LqsolveError(f"{path}: its spec says m={spec.m}, n={spec.n}, but the "
                           f"arrays are {m}x{n}, {sizes[0]} and {sizes[1]} long")
    return inst


# ---------------------------------------------------------------------------
# argument plumbing

def _out_dir(args):
    if args.out_dir is not None:
        return Path(args.out_dir)
    return Path(os.environ.get("LQSOLVE_OUT_DIR", "."))


# what a run's echoed config leaves out: parser bookkeeping, where the
# outputs go, and certify's input file
NOT_ECHOED = {"command", "func", "config", "out_dir", "quiet", "solution"}


def _config(args):
    return {name: v for name, v in vars(args).items() if name not in NOT_ECHOED}


def _instance_from(args):
    if getattr(args, "instance_dir", None):
        return load_instance(args.instance_dir)
    return harness.generate_instance(harness.InstanceSpec(
        m=args.m, n=args.n, k_star=args.k, column_normalize=args.column_normalize,
        snr_db=args.snr_db, seed=args.seed))


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args):
    manifest = save_instance(_out_dir(args), _instance_from(args))
    if not args.quiet:
        print(f"instance written to {_out_dir(args)} (hash {manifest['spec_hash'][:12]})")
    return EXIT_OK


# solve's defaults for the problem, which certify falls back to as well
PROBLEM_DEFAULTS = {"lam": 0.001, "q": 0.5}


def cmd_solve(args):
    inst = _instance_from(args)
    p = inst.problem(args.lam, args.q)
    mu = args.mu if args.mu is not None else solvers.default_mu(args.algorithm, p.A)
    sconf = solvers.SolverConfig(
        mu=mu, max_sweeps=args.max_sweeps, stop=args.stop, tol=args.tol,
        record_every=args.record_every,
        reference=inst.x_true if np.any(inst.x_true) else None)
    run = solvers.gaita_run if args.algorithm == "gaita" else solvers.jaita_run
    state, trace = run(p, np.zeros(p.n), sconf)

    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out_dir / "trace.csv")
    summary = {
        "config": dict(_config(args), mu=mu),
        "flags": trace.flags,
        "final_objective": state.objective,
        # the last row records the final x, with harness.rmse's bits
        "final_rmse": float(trace.column("rmse")[-1])
        if sconf.reference is not None else None,
        "support_size": int(np.count_nonzero(state.x)),
        # an overflowed run's x holds an infinity and has no stationarity
        "stationarity": diagnostics.check_stationary(p, state.x, mu).to_dict()
        if np.all(np.isfinite(state.x)) else None,
    }
    _write_json(out_dir / "summary.json", summary)
    write_vector(out_dir / "solution.csv", state.x)
    if not args.quiet:
        status = "converged" if trace.flags["converged"] else (
            "diverged" if trace.flags["diverged"] else "did not converge")
        print(f"{args.algorithm} {status} after {trace.flags['sweeps']} sweeps; "
              f"outputs in {out_dir}")
    return EXIT_OK


def _run_preset(args, preset):
    """Run a preset under the options given (None keeps the preset's value);
    write {preset}_result.json and return (result, out_dir)."""
    overrides = {name: v for name, v in _config(args).items()
                 if name not in ("seed", "preset") and v is not None}
    result = harness.run_experiment(preset, overrides, args.seed)

    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{preset}_result.json", "w") as fh:
        fh.write(result.to_json())
        fh.write("\n")
    return result, out_dir


def _ragged_csv(path, columns):
    """Write {name: list} as aligned columns keyed by row index (sweep)."""
    length = max(len(v) for v in columns.values())
    write_rows(path, "sweep," + ",".join(columns), (
        [str(s)] + [format_float(v[s]) if s < len(v) else "" for v in columns.values()]
        for s in range(length)))


def cmd_compare(args):
    result, out_dir = _run_preset(args, args.preset)
    csv_path = out_dir / f"{args.preset}_traces.csv"
    if args.preset == "fig4":
        write_rows(csv_path, "mu,algorithm,converged,diverged,sweeps", (
            [format_float(run.mu), run.algorithm, str(run.converged),
             str(run.diverged), str(run.sweeps)] for run in result.runs))
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
    write_rows(out_dir / "mu_sweep_cells.csv", "q,mu,sweeps,converged,final_rmse", (
        [format_float(run.q), format_float(run.mu), str(run.sweeps),
         str(run.converged), format_float(run.final_rmse)] for run in result.runs))
    if not args.quiet:
        reached = sum(run.converged for run in result.runs)
        print(f"mu sweep: {reached}/{len(result.runs)} cells reached the "
              f"RMSE target; results in {out_dir}")
    return EXIT_OK


def cmd_prox_eval(args):
    params = ProxParams(c=args.lambda_mu, q=args.q)
    print(f"q={args.q:g} c={args.lambda_mu:g} tau={params.tau!r} eta={params.eta!r}")
    print("z,prox")
    for z in args.z:
        zero = format_float(prox_scalar(z, 0.0, params))
        if abs(z) == params.tau:
            nonzero = format_float(prox_scalar(z, 1.0, params))
            print(f"{format_float(z)},{nonzero} (x_prev!=0) / {zero} (x_prev=0)")
        else:
            print(f"{format_float(z)},{zero}")
    return EXIT_OK


def _certify_problem(cfg, solution, inst):
    """Fill in lam, q and mu that no flag or config file gave, from the
    summary.json `solve` wrote next to the solution, else solve's defaults,
    and say where each came from.  Stationarity depends on all three, so a
    solution is checked on the problem that produced it whenever known."""
    summary = solution.parent / "summary.json"
    solved = {}
    if summary.exists():
        written = _read_json(summary)
        with _blaming(summary):
            solved = {name: float(value) for name, value in written["config"].items()
                      if name in ("lam", "q", "mu")}
    sources = {}
    for name in ("lam", "q", "mu"):
        if cfg[name] is not None:
            source = "option"
        elif name in solved:
            cfg[name], source = solved[name], "summary.json"
        elif name == "mu":  # from the Fortran-ordered A the solver reads
            A = inst.problem(cfg["lam"], cfg["q"]).A
            cfg[name], source = solvers.default_mu("gaita", A), "default 0.95/L_max"
        else:
            cfg[name] = PROBLEM_DEFAULTS[name]
            source = f"default {cfg[name]:g}"
        sources[f"{name}_source"] = source
    return sources


def cmd_certify(args):
    if args.instance_dir is None:
        raise LqsolveError("certify requires --instance-dir")
    cfg = _config(args)
    inst = load_instance(args.instance_dir)
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

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a number in any notation float() reads (-1e3, -2.5E-1, -inf) is a
        # value, not an option; argparse alone takes only -1 and -1.5
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)

    def error(self, message):
        # one line, and exit 2 through main, for a bad flag or config value alike
        raise LqsolveError(f"{self.prog}: {message}")


def _z_value(text):
    """A --z value of prox-eval: any float but NaN, whose prox is no number."""
    try:
        z = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if z != z:
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: z is NaN")
    return z


def _add_common(sp):
    sp.add_argument("--config", help="JSON file of option values keyed by "
                    "dest; flags on the command line win")
    sp.add_argument("--out-dir", help="output directory (default: $LQSOLVE_OUT_DIR or .)")
    sp.add_argument("--quiet", action="store_true")


def _add_instance_flags(sp):
    _add_common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--m", type=int, default=250)
    sp.add_argument("--n", type=int, default=500)
    sp.add_argument("--k", type=int, default=15)
    sp.add_argument("--snr-db", type=float)
    sp.add_argument("--no-column-normalize", dest="column_normalize",
                    action="store_false")


def _add_preset_flags(sp):
    """Options of compare and sweep; each left at None keeps the preset's value."""
    _add_common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", dest="k_star", type=int)
    sp.add_argument("--lam", type=float)
    sp.add_argument("--max-sweeps", type=int)


def build_parser():
    parser = _Parser(
        prog="lqsolve",
        description="lq (0<q<1) regularized least-squares solvers and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a synthetic instance")
    _add_instance_flags(sp)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("solve", help="run one solver on an instance")
    _add_instance_flags(sp)
    sp.add_argument("--instance-dir", help="directory produced by `lqsolve gen`")
    sp.add_argument("--algorithm", choices=("gaita", "jaita"), default="gaita")
    sp.add_argument("--lam", type=float, default=PROBLEM_DEFAULTS["lam"])
    sp.add_argument("--q", type=float, default=PROBLEM_DEFAULTS["q"])
    sp.add_argument("--mu", type=float)
    run = solvers.SolverConfig  # the run settings and their defaults
    sp.add_argument("--max-sweeps", type=int, default=run.max_sweeps)
    sp.add_argument("--stop", choices=solvers.STOP_RULES, default=run.stop)
    sp.add_argument("--tol", type=float, default=run.tol)
    sp.add_argument("--record-every", type=int, default=run.record_every)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("compare", help="run a preset comparison experiment")
    _add_preset_flags(sp)
    sp.add_argument("--preset", choices=("fig1", "fig3", "fig4"), required=True)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("sweep", help="run the (mu, q) recovery sweep")
    _add_preset_flags(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("prox-eval", help="evaluate the thresholding operator")
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--lambda-mu", type=float, required=True,
                    help="the product lambda*mu")
    sp.add_argument("--z", type=_z_value, nargs="+", required=True)
    sp.set_defaults(func=cmd_prox_eval)

    sp = sub.add_parser("certify", help="stationarity + local-min certificates")
    _add_common(sp)
    sp.add_argument("--solution", required=True, help="vector CSV file")
    sp.add_argument("--instance-dir")
    sp.add_argument("--lam", type=float)
    sp.add_argument("--q", type=float)
    sp.add_argument("--mu", type=float)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.set_defaults(func=cmd_certify)
    return parser


def _checked(args):
    """args, once SolverConfig accepts solve's run settings, so that a bad
    value fails before any work and is blamed on the file it came from.
    mu and the RMSE reference come from the instance later; stand-ins take
    their place here."""
    if args.command == "solve":
        solvers.SolverConfig(mu=1.0 if args.mu is None else args.mu,
                             max_sweeps=args.max_sweeps, stop="cap",
                             tol=args.tol, record_every=args.record_every)
    return args


def _parse(parser, argv):
    """Parse argv; with --config, parse again with the file's flags placed
    after the subcommand and before argv's own flags, so those win."""
    args = _checked(parser.parse_args(argv))
    if getattr(args, "config", None) is None:
        return args
    cfg = _read_json(args.config)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: a for a in sub.choices[args.command]._actions
               if a.option_strings and a.dest != "help"}
    flags = []
    for name, value in cfg.items():
        action = options.get(name)
        if action is None:
            raise LqsolveError(f"{args.config}: unknown key {name!r}")
        switch = action.nargs == 0
        if value is None or switch and value is action.default:
            continue  # the option keeps its default
        # a switch takes no value: argparse rejects any but the other bool
        flag = action.option_strings[0]
        flags.append(flag if switch and value is action.const else f"{flag}={value}")
    try:
        return _checked(parser.parse_args(argv[:1] + flags + argv[1:]))
    except LqsolveError as exc:
        raise LqsolveError(f"{args.config}: {exc}") from None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(build_parser(), argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code
    except OSError as exc:  # before LqsolveError: CorruptFile is both
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (LqsolveError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
