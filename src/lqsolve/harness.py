"""Synthetic compressed-sensing instances and preset experiments.

Instances follow the usual recovery setup: A is m x N with i.i.d.
Gaussian N(0, 1/m) entries (optionally column-normalized), the ground
truth has k_star standard-Gaussian entries on a uniformly drawn support,
and y = A x_true plus optional noise at a requested SNR.  All randomness
flows from a single integer seed through numpy's PCG64 generator, so
instances are bit-reproducible.

Presets mirror the reference experiments:

  fig1     - objective traces of both solvers at a step size where only
             the cyclic one converges (q = 1/2 and 2/3, noiseless).
  fig3     - iteration-error traces, cyclic at mu=0.95 vs Jacobi at
             mu = 0.99/||A||_2^2 (noiseless).
  fig4     - convergence/divergence flags over mu in {0.4, ..., 1.0}.
  mu_sweep - recovery RMSE and sweep counts over a (mu, q) grid with
             30 dB noise, stopping at RMSE <= 1e-2.
"""

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .core import ProblemInstance
from .errors import InvalidInstance
from .solvers import SolverConfig, default_mu, gaita_run, jaita_run
from . import core

PRESETS = ("fig1", "fig3", "fig4", "mu_sweep")
MU_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
Q_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
FIG4_MU_GRID = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

# snr_db at or above this means "no noise" (the scale factor underflows anyway)
NOISELESS_SNR_DB = 300.0


@dataclass(frozen=True)
class InstanceSpec:
    m: int
    n: int
    k_star: int
    column_normalize: bool = True
    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or not (0 <= self.k_star <= self.n):
            raise InvalidInstance(f"bad instance dimensions: {self}")
        if self.snr_db is not None and math.isnan(self.snr_db):
            raise InvalidInstance("snr_db must not be NaN")


@dataclass(frozen=True)
class GeneratedInstance:
    spec: InstanceSpec
    A: np.ndarray
    y: np.ndarray
    x_true: np.ndarray

    def problem(self, lam, q):
        return ProblemInstance(A=self.A, y=self.y, lam=lam, q=q)


def add_noise_snr(signal, snr_db, seed):
    """Add Gaussian noise scaled so ||signal||^2 / ||noise||^2 is exactly
    10^(snr_db/10).  snr_db >= 300 returns the signal unchanged; an snr_db
    whose noise scale is not finite and positive is refused."""
    signal = core.as_vector(signal, "signal")
    norm = float(np.linalg.norm(signal))
    if norm == 0.0:
        raise InvalidInstance("cannot calibrate noise against a zero signal")
    if snr_db >= NOISELESS_SNR_DB:
        return signal.copy()
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(signal.shape[0])
    denom = float(np.linalg.norm(eps)) * 10.0 ** (snr_db / 20.0)
    scale = norm / denom if denom > 0.0 else math.inf
    if not (0.0 < scale < math.inf):
        raise InvalidInstance(f"snr_db={snr_db} gives a noise scale of {scale}, "
                              "not a finite positive one")
    eps *= scale
    return signal + eps


def generate_instance(spec):
    """Draw (A, y, x_true) from the seed.  The noise stream is a separate
    child of the seed, so noisy and noiseless variants share A and x_true."""
    ss = np.random.SeedSequence(spec.seed)
    ss_main, ss_noise = ss.spawn(2)
    rng = np.random.default_rng(ss_main)

    a = rng.normal(0.0, 1.0 / math.sqrt(spec.m), size=(spec.m, spec.n))
    if spec.column_normalize:
        a /= np.linalg.norm(a, axis=0)
    support = rng.choice(spec.n, size=spec.k_star, replace=False)
    x_true = np.zeros(spec.n)
    x_true[support] = rng.standard_normal(spec.k_star)
    y = a @ x_true
    if spec.snr_db is not None:
        y = add_noise_snr(y, spec.snr_db, ss_noise)
    return GeneratedInstance(spec=spec, A=a, y=y, x_true=x_true)


def rmse(x, x_ref):
    """Relative recovery error ||x - x_ref||_2 / ||x_ref||_2, the bits of the
    run loop's rmse column: both norms are core._norm's.  The reference must
    be finite, with a nonzero norm; an x that overflowed to an infinity
    scores inf."""
    x = np.asarray(x, dtype=np.float64)
    x_ref = core.as_vector(x_ref, "x_ref")
    if x.shape != x_ref.shape:
        raise InvalidInstance(f"length mismatch: {x.shape} vs {x_ref.shape}")
    ref_norm = core._norm(x_ref)
    if ref_norm == 0.0:
        raise InvalidInstance("the reference is zero, or its 2-norm underflows to 0")
    return core._norm(x - x_ref) / ref_norm


@dataclass
class RunRecord:
    """Outcome of one solver run within an experiment."""

    algorithm: str
    q: float
    mu: float
    sweeps: int
    converged: bool
    diverged: bool
    final_objective: float
    final_rmse: float | None
    objective_trace: list = field(default_factory=list)
    error_trace: list = field(default_factory=list)        # vs ground truth
    error_trace_vs_limit: list = field(default_factory=list)
    trace: object = None        # full IterationTrace, not serialized
    final_x: object = None      # final iterate, not serialized


@dataclass
class ExperimentResult:
    preset: str
    seed: int
    config: dict
    runs: list

    def to_json(self):
        """Deterministic serialization: the full trace and the final
        iterate are in-memory only, and are not copied here."""
        payload = {
            "preset": self.preset,
            "seed": self.seed,
            "config": self.config,
            "runs": [{f.name: getattr(run, f.name) for f in fields(run)
                      if f.name not in ("trace", "final_x")}
                     for run in self.runs],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _resolve(defaults, overrides):
    cfg = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in cfg:
            raise InvalidInstance(f"unknown override {key!r}")
        cfg[key] = value
    return cfg


def _solve(alg, p, mu, x_true, **config):
    """Run one solver from zero under SolverConfig(mu, **config)."""
    run = gaita_run if alg == "gaita" else jaita_run
    state, trace = run(p, np.zeros(p.n), SolverConfig(mu=mu, **config))
    return RunRecord(
        algorithm=alg, q=p.q, mu=mu,
        sweeps=trace.flags["sweeps"],
        converged=trace.flags["converged"],
        diverged=trace.flags["diverged"],
        final_objective=state.objective,
        final_rmse=rmse(state.x, x_true) if np.any(x_true) else None,
        objective_trace=[float(v) for v in trace.column("objective")],
        trace=trace,
        final_x=state.x.copy(),
    )


def run_experiment(preset, overrides=None, seed=0):
    if preset not in PRESETS:
        raise InvalidInstance(f"unknown preset {preset!r}; choose from {PRESETS}")
    return _PRESET_FUNCS[preset](overrides, seed)


def _run_fig1(overrides, seed):
    cfg = _resolve({
        "m": 250, "n": 500, "k_star": 15, "lam": 0.001, "mu": 0.95,
        "q_list": (0.5, 2.0 / 3.0), "max_sweeps": 2000,
        "step_tol": 1e-10,
    }, overrides)
    inst = generate_instance(InstanceSpec(cfg["m"], cfg["n"], cfg["k_star"], seed=seed))
    runs = []
    for q in cfg["q_list"]:
        p = inst.problem(cfg["lam"], q)
        for alg in ("gaita", "jaita"):
            runs.append(_solve(alg, p, cfg["mu"], inst.x_true,
                               max_sweeps=cfg["max_sweeps"],
                               tol=cfg["step_tol"]))
    return ExperimentResult("fig1", seed, cfg, runs)


def _run_fig3(overrides, seed):
    cfg = _resolve({
        "m": 250, "n": 500, "k_star": 15, "lam": 0.001,
        "q_list": (0.5, 2.0 / 3.0),
        "mu_gaita": 0.95, "max_sweeps": 2000, "max_sweeps_jaita": 10_000,
        "step_tol": 1e-12,
    }, overrides)
    inst = generate_instance(InstanceSpec(cfg["m"], cfg["n"], cfg["k_star"], seed=seed))
    runs, mu_jaita = [], None
    for q in cfg["q_list"]:
        p = inst.problem(cfg["lam"], q)
        if mu_jaita is None:  # the Fortran-ordered A the solver reads, once
            mu_jaita = default_mu("jaita", p.A)
        for alg, mu, cap in (("gaita", cfg["mu_gaita"], cfg["max_sweeps"]),
                             ("jaita", mu_jaita, cfg["max_sweeps_jaita"])):
            rec = _solve(alg, p, mu, inst.x_true, max_sweeps=cap,
                         tol=cfg["step_tol"],
                         reference=inst.x_true, record_iterates=True)
            rec.error_trace = [float(np.linalg.norm(x - inst.x_true))
                               for x in rec.trace.iterates]
            rec.error_trace_vs_limit = [float(np.linalg.norm(x - rec.final_x))
                                        for x in rec.trace.iterates]
            runs.append(rec)
    return ExperimentResult("fig3", seed, cfg, runs)


def _run_fig4(overrides, seed):
    cfg = _resolve({
        "m": 250, "n": 500, "k_star": 15, "lam": 0.001, "q": 0.5,
        "mu_list": FIG4_MU_GRID, "max_sweeps": 3000,
        "step_tol": 1e-10,
    }, overrides)
    inst = generate_instance(InstanceSpec(cfg["m"], cfg["n"], cfg["k_star"], seed=seed))
    p = inst.problem(cfg["lam"], cfg["q"])
    runs = []
    for mu in cfg["mu_list"]:
        for alg in ("gaita", "jaita"):
            runs.append(_solve(alg, p, mu, inst.x_true,
                               max_sweeps=cfg["max_sweeps"],
                               tol=cfg["step_tol"]))
    return ExperimentResult("fig4", seed, cfg, runs)


def _run_mu_sweep(overrides, seed):
    cfg = _resolve({
        "m": 250, "n": 500, "k_star": 15, "lam": 0.009, "snr_db": 30.0,
        "mu_list": MU_GRID, "q_list": Q_GRID,
        "rmse_tol": 1e-2, "max_sweeps": 5000,
    }, overrides)
    inst = generate_instance(InstanceSpec(cfg["m"], cfg["n"], cfg["k_star"],
                                          snr_db=cfg["snr_db"], seed=seed))
    runs = []
    for q in cfg["q_list"]:
        p = inst.problem(cfg["lam"], q)
        for mu in cfg["mu_list"]:
            rec = _solve("gaita", p, mu, inst.x_true,
                         max_sweeps=cfg["max_sweeps"],
                         stop="rmse", tol=cfg["rmse_tol"],
                         reference=inst.x_true)
            # trace kept in full: perfbench checks its objective never rises
            rec.objective_trace = []
            runs.append(rec)
    return ExperimentResult("mu_sweep", seed, cfg, runs)


_PRESET_FUNCS = {
    "fig1": _run_fig1,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "mu_sweep": _run_mu_sweep,
}
