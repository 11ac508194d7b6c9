"""Acceptance gate: one test per shipping criterion, one printed verdict line
per criterion.  Tolerances are pinned here and must not be loosened; a red
line means the behavior is genuinely not met, not that the check is wrong.
"""

import math
import time

import numpy as np
import pytest

from lqsolve import cli
from lqsolve.core import ProblemInstance, l_max, objective
from lqsolve.diagnostics import (certify_local_min, check_relative_error,
                                 check_stationary)
from lqsolve.harness import (MU_GRID, Q_GRID, InstanceSpec, generate_instance,
                             rmse, run_experiment)
from lqsolve.prox import ProxParams, prox_scalar, prox_vector
from lqsolve.solvers import SolverConfig, SolverState, gaita_run, gaita_update

import conftest
from conftest import bisect_root


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)


def verdict(num, name, ok, detail=""):
    report(num, name, ok, detail)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_01_prox_matches_grid_oracle():
    """1000 random scalar cases: the operator's objective value is within
    1e-6 of a brute-force grid minimum (resolution 1e-4); under 10 s."""
    rng = np.random.default_rng(2024)
    q_grid = np.arange(0.1, 0.95, 0.1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        z = float(rng.uniform(-6.0, 6.0))
        q = float(rng.choice(q_grid))
        c = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
        params = ProxParams(c=c, q=q)
        v = prox_scalar(z, 0.0, params)
        f_v = 0.5 * (z - v) ** 2 + (c * abs(v) ** q if v != 0.0 else 0.0)
        span = 2.0 * abs(z)
        if span == 0.0:
            grid_min = 0.0
        else:
            grid = np.arange(-span, span + 1e-4, 1e-4)
            grid_min = float(np.min(0.5 * (z - grid) ** 2
                                    + c * np.abs(grid) ** q))
            grid_min = min(grid_min, 0.5 * z * z)  # v = 0 exactly
        worst = max(worst, f_v - grid_min)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    verdict(1, "prox-grid-oracle", ok,
            f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_threshold_identities():
    """tau = eta*(2-q)/(2-2q) and g(eta) = tau within 1e-10, 100 cases."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        q = float(rng.uniform(0.05, 0.95))
        c = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
        params = ProxParams(c=c, q=q)
        worst = max(worst,
                    abs(params.tau - params.eta * (2 - q) / (2 - 2 * q)),
                    abs(params.eta + c * q * params.eta ** (q - 1.0)
                        - params.tau))
    verdict(2, "threshold-identities", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_03_sufficient_decrease():
    """20 seeded (50,100,5) instances, mu = 0.95/L_max: every coordinate
    update decreases the objective by at least 0.5*(1/mu - L_max)*step^2,
    up to 1e-9 slack."""
    violations = 0
    checked = 0
    for seed in range(20):
        inst = generate_instance(InstanceSpec(50, 100, 5, seed=seed))
        p = inst.problem(0.001, 0.5)
        lmax = l_max(p.A)
        mu = 0.95 / lmax
        coeff = 0.5 * (1.0 / mu - lmax)
        config = SolverConfig(mu=mu)
        state = SolverState.initial(p, np.zeros(p.n))
        for _ in range(400):  # sweeps
            sweep_max = 0.0
            for _ in range(p.n):
                i = state.n % p.n
                new = gaita_update(state, p, config)
                delta = new.x[i] - state.x[i]
                checked += 1
                if state.objective - new.objective < coeff * delta ** 2 - 1e-9:
                    violations += 1
                sweep_max = max(sweep_max, abs(delta))
                state = new
            if sweep_max <= 1e-10:
                break
    verdict(3, "sufficient-decrease", violations == 0,
            f"{violations} violations in {checked} updates")


def test_criterion_04_fig1_reproduction():
    """(250,500,15), lam=0.001, mu=0.95, q in {1/2, 2/3}: cyclic solver
    converges monotonically within 2000 sweeps, Jacobi diverges — on at
    least 9 of 10 seeds, in under 2 minutes."""
    t0 = time.perf_counter()
    good = 0
    for seed in range(10):
        result = run_experiment("fig1", seed=seed)
        ok = True
        for run in result.runs:
            obj = np.array(run.objective_trace)
            if run.algorithm == "gaita":
                ok &= run.converged and run.sweeps <= 2000
                ok &= bool(np.all(np.diff(obj) <= 1e-10))
            else:
                ok &= run.diverged
        good += ok
    elapsed = time.perf_counter() - t0
    verdict(4, "fig1-reproduction", good >= 9 and elapsed < 120.0,
            f"{good}/10 seeds, {elapsed:.1f}s")


def test_criterion_05_fig3_reproduction():
    """Noiseless (250,500,15): the cyclic solver reaches iteration error
    1e-6 (vs its own limit) within 500 sweeps; the Jacobi baseline at
    mu = 0.99/||A||^2 needs more than 3x as many sweeps; the two limits
    agree to relative 1e-6."""
    result = run_experiment("fig3", seed=0)
    ok = True
    details = []
    by_q = {}
    for run in result.runs:
        by_q.setdefault(run.q, {})[run.algorithm] = run
    for q, pair in by_q.items():
        g, j = pair["gaita"], pair["jaita"]
        g_err = np.array(g.error_trace_vs_limit)
        j_err = np.array(j.error_trace_vs_limit)
        g_first = int(np.argmax(g_err <= 1e-6))
        j_first = int(np.argmax(j_err <= 1e-6))
        limit_gap = rmse(j.final_x, g.final_x)
        ok &= 0 < g_first <= 500
        ok &= j_first > 3 * g_first
        ok &= limit_gap <= 1e-6
        details.append(f"q={q:.3g}: {g_first} vs {j_first} sweeps, "
                       f"limit gap {limit_gap:.1e}")
    verdict(5, "fig3-reproduction", ok, "; ".join(details))


def test_criterion_06_fig4_reproduction():
    """q=1/2, mu in {0.4,...,1.0}: every cyclic run converges with a
    monotone objective, every Jacobi run diverges — 9 of 10 seeds."""
    good = 0
    for seed in range(10):
        result = run_experiment("fig4", seed=seed)
        ok = True
        for run in result.runs:
            if run.algorithm == "gaita":
                ok &= run.converged
                obj = np.array(run.objective_trace)
                ok &= bool(np.all(np.diff(obj) <= 1e-10))
            else:
                ok &= run.diverged
        good += ok
    verdict(6, "fig4-reproduction", good >= 9, f"{good}/10 seeds")


def test_criterion_07_stationarity_of_limits():
    """Converged endpoints pass the three-condition check at tol 1e-6;
    on N <= 6 instances the endpoint is a fixed point of the thresholded
    gradient map to 1e-8."""
    ok = True
    for seed in range(5):
        inst = generate_instance(InstanceSpec(50, 100, 5, seed=seed))
        p = inst.problem(0.001, 0.5)
        mu = 0.95 / l_max(p.A)
        state, trace = gaita_run(p, np.zeros(p.n), SolverConfig(mu=mu))
        ok &= trace.flags["converged"]
        ok &= check_stationary(p, state.x, mu, tol=1e-6).is_stationary

    worst_gap = 0.0
    for seed in range(6):
        inst = generate_instance(InstanceSpec(5, 6, 2, seed=50 + seed))
        p = inst.problem(0.01, 0.5)
        mu = 0.9 / l_max(p.A)
        state, trace = gaita_run(p, np.zeros(p.n), SolverConfig(mu=mu, tol=1e-13))
        ok &= trace.flags["converged"]
        params = ProxParams(c=p.lam * mu, q=p.q)
        z = state.x - mu * (p.A.T @ (p.A @ state.x - p.y))
        gap = float(np.linalg.norm(prox_vector(z, state.x, params) - state.x))
        worst_gap = max(worst_gap, gap)
    ok &= worst_gap <= 1e-8
    verdict(7, "stationary-limits", ok, f"worst fixed-point gap {worst_gap:.1e}")


def test_criterion_08_support_sign_freeze():
    """In every converged run the support/sign vector freezes strictly
    before run end and never changes afterwards (post-hoc full-trace
    scan; zero violations).  A violation means signs were still flipping
    when the step-size stop fired."""
    violations = 0
    runs = 0
    cases = [InstanceSpec(50, 100, 5, seed=s) for s in range(5)]
    cases.append(InstanceSpec(250, 500, 15, seed=0))
    for spec in cases:
        inst = generate_instance(spec)
        p = inst.problem(0.001, 0.5)
        mu = 0.95 / l_max(p.A)
        state, trace = gaita_run(p, np.zeros(p.n),
                                 SolverConfig(mu=mu, record_iterates=True))
        if not trace.flags["converged"]:
            continue
        runs += 1
        signs = trace.sign_history()
        final = np.sign(state.x).astype(signs.dtype)
        changes = np.nonzero([not np.array_equal(row, final) for row in signs])[0]
        freeze = int(changes[-1]) + 1 if changes.size else 0
        frozen_tail_ok = (freeze < len(signs) - 1
                          and np.all(signs[freeze:] == final))
        if not frozen_tail_ok:
            violations += 1
    verdict(8, "support-sign-freeze", violations == 0 and runs == len(cases),
            f"{runs} converged runs, {violations} violations")


def test_criterion_09_relative_error_bound():
    """On the frozen-support tails of 10 converged runs, the gradient norm
    is bounded by (1/mu + K*delta)*sqrt(K) times the sweep step, +1e-9."""
    ok = True
    for seed in range(10):
        inst = generate_instance(InstanceSpec(50, 100, 5, seed=seed))
        p = inst.problem(0.001, 0.5)
        mu = 0.95 / l_max(p.A)
        _, trace = gaita_run(
            p, np.zeros(p.n),
            SolverConfig(mu=mu, record_iterates=True, tol=1e-12))
        signs = trace.sign_history()
        final = signs[-1]
        changes = np.nonzero([not np.array_equal(row, final) for row in signs])[0]
        freeze = int(changes[-1]) + 1 if changes.size else 0
        tail = trace.iterates[freeze:]
        ok &= len(tail) >= 2
        ok &= check_relative_error(p, tail, mu, slack=1e-9)
    verdict(9, "relative-error-bound", ok)


def test_criterion_10_local_min_certificates():
    """The 1-d worked example certifies with curvature 0.877 +/- 1e-3;
    certified points survive 200 perturbations at norm 1e-4 (objective
    never drops below the minimum minus 1e-12); the implication chain
    8(b) => 8(a) => 7 holds on every tested instance."""
    ok = True
    certified = []  # (problem, x_star, certificate)

    # 1-d worked example
    p1 = ProblemInstance(A=[[1.0]], y=[2.0], lam=1.0, q=0.5)
    x_star = bisect_root(lambda v: v + 0.5 / math.sqrt(v) - 2.0, 1.0, 2.0,
                         tol=1e-14)
    cert1 = certify_local_min(p1, np.array([x_star]), mu=1.0, tol=1e-6)
    ok &= abs(cert1.min_eig_condition - 0.877) <= 1e-3
    certified.append((p1, np.array([x_star]), cert1))

    # orthonormal columns: both sufficient conditions attainable
    y6 = np.zeros(6)
    y6[1], y6[4] = 3.0, -2.0
    p2 = ProblemInstance(A=np.eye(6), y=y6, lam=0.01, q=0.5)
    state2, _ = gaita_run(p2, np.zeros(6), SolverConfig(mu=0.9))
    cert2 = certify_local_min(p2, state2.x, mu=0.9, tol=1e-6)
    ok &= cert2.theorem8b_holds and cert2.theorem8a_holds
    certified.append((p2, state2.x, cert2))

    # random recovery endpoints
    for seed in range(5):
        inst = generate_instance(InstanceSpec(50, 100, 5, seed=seed))
        p = inst.problem(0.001, 0.5)
        mu = 0.95 / l_max(p.A)
        state, _ = gaita_run(p, np.zeros(p.n), SolverConfig(mu=mu))
        certified.append((p, state.x, certify_local_min(p, state.x, mu,
                                                        tol=1e-6)))

    rng = np.random.default_rng(99)
    for p, x, cert in certified:
        if cert.theorem8b_holds:
            ok &= cert.theorem8a_holds
        if cert.theorem8a_holds:
            ok &= cert.theorem7_holds
        if cert.theorem7_holds:
            base = objective(p, x)
            for _ in range(200):
                h = rng.standard_normal(p.n)
                h *= 1e-4 / np.linalg.norm(h)
                if objective(p, x + h) < base - 1e-12:
                    ok = False
    verdict(10, "local-min-certificates", ok,
            f"1-d curvature {cert1.min_eig_condition:.4f}, "
            f"{len(certified)} certificates")


def test_criterion_11_mu_sweep_recovery():
    """(250,500,15), lam=0.009, 30 dB noise, stop at RMSE 1e-2: every
    (mu, q) cell reaches the target, and mu=0.95 needs strictly fewer
    sweeps than mu=0.1 at every q."""
    result = run_experiment("mu_sweep", seed=0)
    cells = {(round(r.q, 3), round(r.mu, 3)): r for r in result.runs}
    missed = [key for key, r in cells.items()
              if not (r.converged and r.final_rmse <= 1e-2)]
    ordering_ok = True
    for q in Q_GRID:
        fast = cells[(round(q, 3), 0.95)].sweeps
        slow = cells[(round(q, 3), 0.1)].sweeps
        if not fast < slow:
            ordering_ok = False
    for key in sorted(cells):
        r = cells[key]
        print(f"  mu-sweep cell q={key[0]} mu={key[1]}: rmse={r.final_rmse:.4f} "
              f"sweeps={r.sweeps} converged={r.converged}")
    ok = not missed and ordering_ok
    verdict(11, "mu-sweep-recovery", ok,
            f"{len(missed)}/{len(cells)} cells missed the 1e-2 target")


def test_criterion_12_determinism(tmp_path):
    """Identical seeds give byte-identical CSV/JSON outputs, through both
    the library and the command line."""
    a = run_experiment("fig4", {"m": 30, "n": 60, "k_star": 4,
                                "max_sweeps": 400}, seed=3).to_json()
    b = run_experiment("fig4", {"m": 30, "n": 60, "k_star": 4,
                                "max_sweeps": 400}, seed=3).to_json()
    ok = a == b

    inst_dir = tmp_path / "inst"
    cli.main(["gen", "--m", "25", "--n", "50", "--k", "3", "--seed", "11",
              "--out-dir", str(inst_dir), "--quiet"])
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        cli.main(["solve", "--instance-dir", str(inst_dir), "--lam", "0.001",
                  "--out-dir", str(out), "--quiet"])
        outs.append(out)
    for fname in ("trace.csv", "summary.json", "solution.csv"):
        ok &= (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    inst2 = tmp_path / "inst2"
    cli.main(["gen", "--m", "25", "--n", "50", "--k", "3", "--seed", "11",
              "--out-dir", str(inst2), "--quiet"])
    ok &= (inst_dir / "A.csv").read_bytes() == (inst2 / "A.csv").read_bytes()
    verdict(12, "determinism", ok)
