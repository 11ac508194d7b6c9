import contextlib
import ctypes
import shutil
import subprocess
import warnings

import numpy as np
import pytest

from lqsolve import _csweep, solvers
from lqsolve.core import ProblemInstance, l_max, objective, spectral_norm_sq
from lqsolve.errors import ConvergenceFailure, DimensionMismatch, InvalidInstance
from lqsolve.harness import InstanceSpec, generate_instance
from lqsolve.prox import ProxParams, prox_vector
from lqsolve.solvers import (IterationTrace, SolverConfig, SolverState,
                             _sweep_python, gaita_run, gaita_update, jaita_run)

from conftest import bisect_root, plain_run, read_trace_csv, small_problem


class TestGaitaUpdate:
    def test_unit_worked_example(self, unit_problem):
        # first update solves v + 0.5/sqrt(v) = 2 on [1, 2]
        state = SolverState.initial(unit_problem, np.zeros(1))
        config = SolverConfig(mu=1.0)
        new = gaita_update(state, unit_problem, config)
        import math
        expected = bisect_root(lambda v: v + 0.5 / math.sqrt(v) - 2.0, 1.0, 2.0)
        assert new.x[0] == pytest.approx(expected, abs=1e-9)
        assert new.n == 1

    def test_fixed_point_is_unchanged(self, unit_problem):
        state = SolverState.initial(unit_problem, np.zeros(1))
        config = SolverConfig(mu=1.0)
        s1 = gaita_update(state, unit_problem, config)
        s2 = gaita_update(s1, unit_problem, config)
        assert s2.x[0] == pytest.approx(s1.x[0], abs=1e-9)

    def test_residual_matches_recomputation(self):
        p, _ = small_problem(seed=2)
        config = SolverConfig(mu=0.5 / l_max(p.A))
        state = SolverState.initial(p, np.zeros(p.n))
        for _ in range(3 * p.n):  # three full sweeps of chained rank-1 updates
            state = gaita_update(state, p, config)
        fresh = p.A @ state.x - p.y
        assert np.linalg.norm(state.residual - fresh) <= 1e-8

    def test_sufficient_decrease_per_update(self):
        p, _ = small_problem(seed=3)
        lmax = l_max(p.A)
        mu = 0.95 / lmax
        coeff = 0.5 * (1.0 / mu - lmax)
        config = SolverConfig(mu=mu)
        state = SolverState.initial(p, np.zeros(p.n))
        for _ in range(2 * p.n):
            new = gaita_update(state, p, config)
            i = state.n % p.n
            delta = new.x[i] - state.x[i]
            assert state.objective - new.objective >= coeff * delta ** 2 - 1e-9
            state = new


class TestGaitaRun:
    def test_zero_data_stops_at_zero(self):
        p = ProblemInstance(A=np.eye(3), y=np.zeros(3), lam=1.0, q=0.5)
        state, trace = gaita_run(p, np.zeros(3), SolverConfig(mu=0.5))
        assert trace.flags["converged"] and trace.flags["sweeps"] == 1
        assert np.array_equal(state.x, np.zeros(3))

    def test_converges_and_objective_monotone(self):
        p, inst = small_problem(seed=1, lam=0.001)
        config = SolverConfig(mu=0.95 / l_max(p.A),
                              reference=inst.x_true)
        state, trace = gaita_run(p, np.zeros(p.n), config)
        assert trace.flags["converged"]
        obj = trace.column("objective")
        assert np.all(np.diff(obj) <= 1e-12)
        assert state.objective == pytest.approx(objective(p, state.x), rel=1e-12)

    def test_step_norms_summable(self):
        # sum of squared sweep steps is bounded by the initial objective
        # over the decrease coefficient
        p, _ = small_problem(seed=4)
        lmax = l_max(p.A)
        mu = 0.9 / lmax
        state, trace = gaita_run(p, np.zeros(p.n), SolverConfig(mu=mu))
        steps = trace.column("step_norm")[1:]
        bound = objective(p, np.zeros(p.n)) / (0.5 * (1.0 / mu - lmax))
        assert float(np.sum(steps ** 2)) <= bound + 1e-6

    def test_range_law_on_final_iterate(self):
        p, _ = small_problem(seed=5)
        config = SolverConfig(mu=0.95 / l_max(p.A))
        state, _ = gaita_run(p, np.zeros(p.n), config)
        params = ProxParams(c=p.lam * config.mu, q=p.q)
        nz = state.x[state.x != 0.0]
        assert np.all(np.abs(nz) >= params.eta - 1e-10)

    def test_matches_chained_updates(self):
        p, _ = small_problem(seed=6, m=8, n=12, k=2)
        config = SolverConfig(mu=0.9 / l_max(p.A), max_sweeps=5, stop="cap")
        state, _ = gaita_run(p, np.zeros(p.n), config)
        ref = SolverState.initial(p, np.zeros(p.n))
        for sweep in range(5):
            for _ in range(p.n):
                ref = gaita_update(ref, p, config)
            # the run loop refreshes the cached residual once per sweep
            ref.residual = p.A @ ref.x - p.y
        assert np.array_equal(state.x, ref.x)

    # (q, mu as a multiple of 1/L_max, sweeps, problem): the paper's two
    # exponents, a step near 1/L_max, and a capped noisy mu_sweep-style cell
    KERNEL_CASES = [
        (0.5, 0.95, 20, dict(seed=7)),
        (2 / 3, 0.95, 20, dict(seed=7)),
        (0.5, 0.999, 40, dict(seed=9, m=60, n=120, k=5)),
        (0.9, 0.3, 300, dict(seed=0, m=60, n=120, k=5, lam=0.009, snr_db=30.0)),
    ]

    def test_kernel_matches_pure_python(self):
        if solvers._sweep is _sweep_python:
            pytest.skip(f"no compiled sweep: {solvers.sweep_backend()}")
        for q, factor, sweeps, spec in self.KERNEL_CASES:
            p, _ = small_problem(q=q, **spec)
            mu = factor / l_max(p.A)
            params = ProxParams(c=p.lam * mu, q=p.q)
            for screen in (False, True):
                x, xp = np.zeros(p.n), np.zeros(p.n)
                r, rp = p.A @ x - p.y, p.A @ xp - p.y
                sweep_c = solvers._sweep_c(p.A, x, r, mu, params, screen=screen)
                sweep_py = _sweep_python(p.A, xp, rp, mu, params)
                for sweep in range(sweeps):
                    assert sweep_c() == sweep_py(), (q, screen, sweep)
                    assert x.tobytes() == xp.tobytes(), (q, sweep)
                    assert r.tobytes() == rp.tobytes(), (q, sweep)
                    r[:] = p.A @ x - p.y
                    rp[:] = p.A @ xp - p.y

    def test_run_is_the_same_on_both_backends(self, monkeypatch):
        if solvers._sweep is _sweep_python:
            pytest.skip(f"no compiled sweep: {solvers.sweep_backend()}")
        for q, factor, sweeps, spec in self.KERNEL_CASES:
            p, inst = small_problem(q=q, **spec)
            config = SolverConfig(mu=factor / l_max(p.A), max_sweeps=sweeps,
                                  stop="cap",
                                  reference=inst.x_true)
            runs = []
            for kernel in (solvers._sweep_c, _sweep_python):
                monkeypatch.setattr(solvers, "_sweep", kernel)
                runs.append(gaita_run(p, np.zeros(p.n), config))
            (s_c, t_c), (s_py, t_py) = runs
            assert s_c.x.tobytes() == s_py.x.tobytes()
            assert np.array_equal(np.array(t_c.rows), np.array(t_py.rows),
                                  equal_nan=True)

    def test_mu_warning_flag(self):
        p, _ = small_problem(seed=8)
        lmax = l_max(p.A)
        _, t_ok = gaita_run(p, np.zeros(p.n),
                            SolverConfig(mu=0.5 / lmax, max_sweeps=1))
        _, t_hot = gaita_run(p, np.zeros(p.n),
                             SolverConfig(mu=1.5 / lmax, max_sweeps=1))
        assert not t_ok.flags["mu_warning"]
        assert t_hot.flags["mu_warning"]

    def test_rmse_stop(self):
        # a seed where the true signal is recoverable at this small size
        p, inst = small_problem(seed=11, lam=0.001)
        config = SolverConfig(mu=0.95 / l_max(p.A),
                              stop="rmse", tol=1e-2, reference=inst.x_true)
        _, trace = gaita_run(p, np.zeros(p.n), config)
        assert trace.flags["converged"]
        assert trace.column("rmse")[-1] <= 1e-2

    def test_max_sweeps_zero_reports_initial_state(self):
        p, _ = small_problem(seed=10)
        state, trace = gaita_run(p, np.zeros(p.n),
                                 SolverConfig(mu=0.5 / l_max(p.A), max_sweeps=0))
        assert len(trace) == 1 and trace.rows[0][0] == 0
        assert np.array_equal(state.x, np.zeros(p.n))

    def test_diverges_at_large_step(self):
        # unguarded, the objective overflows within a few hundred sweeps
        # and the prox raises on the non-finite input
        p, _ = small_problem(seed=0, m=40, n=80, k=4, lam=0.001)
        state, trace = gaita_run(p, np.zeros(p.n),
                                 SolverConfig(mu=2.5 / l_max(p.A)))
        assert trace.flags["diverged"] and not trace.flags["converged"]
        assert trace.flags["sweeps"] <= 10
        assert np.all(np.isfinite(state.x)) and np.isfinite(state.objective)

    def test_record_every_keeps_first_and_last(self):
        p, _ = small_problem(seed=11)
        config = SolverConfig(mu=0.95 / l_max(p.A), record_every=25)
        _, trace = gaita_run(p, np.zeros(p.n), config)
        sweeps = trace.column("sweep")
        assert sweeps[0] == 0
        assert sweeps[-1] == trace.flags["sweeps"]
        interior = sweeps[1:-1]
        assert np.all(interior % 25 == 0)


def _kernel(name):
    if name == "c" and solvers._sweep is not solvers._sweep_c:
        pytest.skip(f"no compiled sweep: {solvers.sweep_backend()}")
    return {"python": _sweep_python, "c": solvers._sweep_c}[name]


@pytest.mark.parametrize("name", ["python", "c"])
def test_stalled_prox_raises(name, monkeypatch):
    # an overflowing forward step leaves the root-finder nothing to converge
    # on, in gaita's sweep and in jaita's vector prox alike, whether the
    # root has a closed form (q = 1/2, 2/3) or is found by Newton (q = 0.9)
    sweep = _kernel(name)
    if name == "python":
        monkeypatch.setattr(_csweep, "lq_prox", None)
    A = np.full((4, 3), 0.5, order="F")
    stalled = r"^prox root-finder stalled at z_abs=inf$"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for q in (0.5, 2.0 / 3.0, 0.9):
            params = ProxParams(c=0.01, q=q)
            for big in (1e308, -1e308):  # z = -inf, then z = +inf
                x, r = np.zeros(3), np.full(4, big)
                step = sweep(A, x, r, 1.0, params)
                with pytest.raises(ConvergenceFailure, match=stalled):
                    step()
                assert np.array_equal(x, np.zeros(3))
                with pytest.raises(ConvergenceFailure, match=stalled):
                    prox_vector(np.array([0.5, -np.sign(big) * np.inf]),
                                np.zeros(2), params)
    assert [str(w.message) for w in caught] == []  # silent on both backends


@pytest.mark.parametrize("name", ["python", "c"])
def test_stalled_prox_raises_from_a_run(name, monkeypatch):
    # the same failure through gaita_run, which binds the sweep once per
    # run: from a finite initial objective (2e300), mu = 1e300 makes every
    # forward step overflow to -inf
    monkeypatch.setattr(solvers, "_sweep", _kernel(name))
    stalled = r"^prox root-finder stalled at z_abs=inf$"
    for q in (0.5, 2.0 / 3.0, 0.9):
        p = ProblemInstance(A=np.full((4, 3), 0.5), y=np.full(4, -1e150),
                            lam=0.01, q=q)
        with pytest.raises(ConvergenceFailure, match=stalled):
            gaita_run(p, np.zeros(3), SolverConfig(mu=1e300))


@pytest.mark.parametrize("bad, error", [
    ("c_ordered_A", InvalidInstance), ("float32_x", InvalidInstance),
    ("read_only_x", InvalidInstance), ("short_r", DimensionMismatch),
    ("long_x", DimensionMismatch)])
def test_c_kernel_rejects_bad_arrays(bad, error):
    sweep = _kernel("c")
    A = np.asfortranarray(np.arange(12.0).reshape(4, 3))
    x, r = np.zeros(3), np.zeros(4)
    if bad == "c_ordered_A":
        A = np.ascontiguousarray(A)
    elif bad == "float32_x":
        x = x.astype(np.float32)
    elif bad == "read_only_x":
        x.flags.writeable = False
    elif bad == "short_r":
        r = r[:3]
    else:
        x = np.zeros(4)
    with pytest.raises(error):  # at bind time, before any pointer is used
        sweep(A, x, r, 0.1, ProxParams(c=0.01, q=0.5))


def test_kernel_builds_into_an_empty_cache(tmp_path, monkeypatch):
    _kernel("c")
    monkeypatch.setattr(_csweep, "CACHE", tmp_path)
    sweep, prox, ddot = _csweep.load()
    assert sweep is not None and prox is not None and ddot
    assert [f.suffix for f in tmp_path.iterdir()] == [".so"]


def test_kernel_compiles_without_warnings(tmp_path):
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found")
    proc = subprocess.run([gcc, *_csweep.FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "sweep.so"), str(_csweep.SOURCE), "-lm"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("fault, reason", [
    ("no_gcc", "^gcc not found$"), ("bad_source", "^gcc failed: ")])
def test_unbuildable_kernel_reports_why(fault, reason, tmp_path, monkeypatch):
    _kernel("c")  # the build is reached only where the rest is in place
    cache = tmp_path / "cache"
    monkeypatch.setattr(_csweep, "CACHE", cache)
    if fault == "no_gcc":
        monkeypatch.setattr(shutil, "which", lambda name: None)
    else:
        bad = tmp_path / "bad.c"
        bad.write_text("int broken(\n")
        monkeypatch.setattr(_csweep, "SOURCE", bad)
    with pytest.raises(_csweep.Unavailable, match=reason):
        _csweep.load()
    assert not list(cache.glob("*"))  # no half-written build left behind


def one_jaita_step(p, x0, mu):
    state, _ = jaita_run(p, x0, SolverConfig(mu=mu, max_sweeps=1, stop="cap"))
    return state


class TestJaita:
    def test_update_keeps_fixed_point(self, unit_problem):
        config = SolverConfig(mu=1.0)
        state = SolverState.initial(unit_problem, np.zeros(1))
        s1 = gaita_update(state, unit_problem, config)  # reach the fixed point
        s2 = one_jaita_step(unit_problem, s1.x, config.mu)
        assert s2.x[0] == pytest.approx(s1.x[0], abs=1e-9)

    def test_subthreshold_zero_stays_zero(self):
        p = ProblemInstance(A=np.eye(2), y=np.array([0.1, -0.1]),
                            lam=1.0, q=0.5)
        new = one_jaita_step(p, np.zeros(2), 0.9)
        assert np.array_equal(new.x, np.zeros(2))

    def test_converges_at_safe_step(self):
        p, _ = small_problem(seed=12, lam=0.001)
        mu = 0.99 / spectral_norm_sq(p.A)
        state, trace = jaita_run(p, np.zeros(p.n), SolverConfig(mu=mu))
        assert trace.flags["converged"]
        assert not trace.flags["mu_warning"]
        rep_obj = objective(p, state.x)
        assert state.objective == pytest.approx(rep_obj, rel=1e-12)

    def test_diverges_at_large_step(self):
        p, _ = small_problem(seed=12, lam=0.001)
        mu = 0.95 / l_max(p.A)  # safe for the cyclic solver, not for this one
        _, trace = jaita_run(p, np.zeros(p.n),
                             SolverConfig(mu=mu, max_sweeps=500))
        assert trace.flags["diverged"]
        assert trace.flags["mu_warning"]

    def test_mu_warning_at_the_exact_bound(self):
        # the flag must not rest on an underestimate of ||A||_2^2
        p = generate_instance(InstanceSpec(250, 500, 15, seed=0)).problem(0.001, 0.5)
        sigma_sq = np.linalg.norm(p.A, 2) ** 2
        for factor, warned in ((1 + 1e-9, True), (1 - 1e-9, False)):
            _, trace = jaita_run(p, np.zeros(p.n),
                                 SolverConfig(mu=factor / sigma_sq, max_sweeps=0))
            assert trace.flags["mu_warning"] is warned, factor

    def test_agrees_with_cyclic_limit(self):
        # both solvers can land on different stationary points of the
        # nonconvex objective; this seed is one where they coincide
        p, _ = small_problem(seed=2, lam=0.001)
        g_state, _ = gaita_run(p, np.zeros(p.n),
                               SolverConfig(mu=0.95 / l_max(p.A)))
        j_state, j_trace = jaita_run(
            p, np.zeros(p.n),
            SolverConfig(mu=0.99 / spectral_norm_sq(p.A), max_sweeps=50_000))
        assert j_trace.flags["converged"]
        assert np.linalg.norm(g_state.x - j_state.x) <= 1e-6


@pytest.mark.parametrize("run, bound, factor", [
    (gaita_run, l_max, 0.95), (jaita_run, spectral_norm_sq, 0.99)])
def test_step_norm_spans_skipped_sweeps(run, bound, factor):
    # step_norm is the change since the previous record, not the last step
    p, _ = small_problem(seed=3)
    config = SolverConfig(mu=factor / bound(p.A), max_sweeps=20,
                          stop="cap", record_every=3,
                          record_iterates=True)
    _, trace = run(p, np.zeros(p.n), config)
    it = trace.iterates
    assert len(it) == 8  # sweeps 0, 3, ..., 18 and the final sweep 20
    for k in range(1, len(it)):
        assert trace.rows[k][3] == np.linalg.norm(it[k] - it[k - 1])


@pytest.fixture(scope="module")
def noisy_instance():
    """The 250x500x15 instance of the mu_sweep preset at seed 0 (30 dB)."""
    return generate_instance(InstanceSpec(250, 500, 15, snr_db=30.0, seed=0))


_DDOT = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_int64, ctypes.c_void_p,
                         ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64)


@contextlib.contextmanager
def counting_ddot(monkeypatch):
    """Count the column dot products the C sweep computes inside the block."""
    if solvers._sweep is _sweep_python:
        pytest.skip(f"no compiled sweep: {solvers.sweep_backend()}")
    real = _DDOT(_csweep.ddot)
    calls = []

    def counted(n, x, incx, y, incy):
        calls.append(None)
        return real(n, x, incx, y, incy)

    callback = _DDOT(counted)
    with monkeypatch.context() as patch:
        patch.setattr(_csweep, "ddot", ctypes.cast(callback, ctypes.c_void_p).value)
        yield calls


def _assert_same_run(got, want):
    (state, trace), (x, r, obj, ref) = got, want
    assert repr(trace.rows) == repr(ref.rows)
    assert [a.tobytes() for a in trace.iterates] == [a.tobytes() for a in ref.iterates]
    assert trace.flags == ref.flags
    assert state.x.tobytes() == x.tobytes()
    assert state.residual.tobytes() == r.tobytes()
    assert repr(state.objective) == repr(obj)


class TestScreening:
    """The C sweep skips the dot product of a zero coordinate that a bound
    proves stays zero, with every output equal to the plain loop's."""

    # (q, mu, cap) on noisy_instance at lam = 0.009: x reaches a fixed
    # point at sweep 108, a cycle of period 10 at sweep 39, and for
    # (0.9, 0.95) never repeats, with 7 zero coordinates within 10% of
    # the threshold, so their bounds reach it and they are recomputed
    CELLS = [(0.5, 0.5, 200), (0.5, 0.95, 120), (0.9, 0.95, 400)]
    RULES = {"cap": {"stop": "cap"}, "rmse": {"stop": "rmse", "tol": 1e-2}}

    @pytest.mark.parametrize("rule", sorted(RULES))
    @pytest.mark.parametrize("q, mu, cap", CELLS)
    def test_gaita_matches_plain_loop(self, noisy_instance, q, mu, cap, rule):
        p = noisy_instance.problem(0.009, q)
        for every in (1, 3, 7):
            for iterates in (False, True):
                config = SolverConfig(
                    mu=mu, max_sweeps=cap, record_every=every,
                    reference=noisy_instance.x_true,
                    record_iterates=iterates, **self.RULES[rule])
                _assert_same_run(gaita_run(p, np.zeros(p.n), config),
                                 plain_run(p, np.zeros(p.n), config, "gaita"))

    @pytest.mark.parametrize("q, mu, cap", CELLS)
    def test_screening_skips_most_dot_products(self, noisy_instance, monkeypatch,
                                               q, mu, cap):
        p = noisy_instance.problem(0.009, q)
        config = SolverConfig(mu=mu, max_sweeps=cap, stop="cap")
        with counting_ddot(monkeypatch) as calls:
            got = gaita_run(p, np.zeros(p.n), config)
        assert len(calls) < 0.25 * cap * p.n
        _assert_same_run(got, plain_run(p, np.zeros(p.n), config, "gaita"))

    def test_screening_sees_r_move_between_sweeps(self, noisy_instance):
        # at the fixed point every zero coordinate is screened; then r is
        # pushed along one zero column until that coordinate must enter
        p = noisy_instance.problem(0.009, 0.5)
        mu = 0.5
        params = ProxParams(c=p.lam * mu, q=p.q)
        x = np.zeros(p.n)
        r = p.A @ x - p.y
        sweep = solvers._sweep_c(p.A, x, r, mu, params)
        for _ in range(150):
            sweep()
            r[:] = p.A @ x - p.y
        j = int(np.flatnonzero(x == 0.0)[0])
        col = p.A[:, j]
        r += 2.0 * params.tau / mu * col / (col @ col)
        xp, rp = x.copy(), r.copy()
        assert sweep() == _sweep_python(p.A, xp, rp, mu, params)()
        assert x.tobytes() == xp.tobytes() and r.tobytes() == rp.tobytes()
        assert x[j] != 0.0

    def test_kernel_without_state_computes_every_column(self, noisy_instance,
                                                        monkeypatch):
        p = noisy_instance.problem(0.009, 0.5)
        params = ProxParams(c=p.lam * 0.5, q=p.q)
        x = np.zeros(p.n)
        r = p.A @ x - p.y
        with counting_ddot(monkeypatch) as calls:
            sweep = solvers._sweep_c(p.A, x, r, 0.5, params, screen=False)
            for _ in range(3):
                sweep()
        assert len(calls) == 3 * p.n

    @pytest.mark.parametrize("every", [1, 3, 7])
    def test_jaita_matches_plain_loop(self, noisy_instance, every):
        p = noisy_instance.problem(0.009, 0.5)
        config = SolverConfig(mu=0.95 / spectral_norm_sq(p.A), max_sweeps=420,
                              record_every=every, stop="cap",
                              reference=noisy_instance.x_true,
                              record_iterates=True)
        _assert_same_run(jaita_run(p, np.zeros(p.n), config),
                         plain_run(p, np.zeros(p.n), config, "jaita"))

    def test_converging_run_matches_plain_loop(self):
        p, _ = small_problem(seed=11)
        config = SolverConfig(mu=0.95 / l_max(p.A), record_every=4)
        got = gaita_run(p, np.zeros(p.n), config)
        assert got[1].flags["converged"]
        _assert_same_run(got, plain_run(p, np.zeros(p.n), config, "gaita"))


@pytest.mark.parametrize("run", [gaita_run, jaita_run])
def test_nan_objective_is_divergence(run, monkeypatch):
    # no real input was found that makes the objective NaN before the prox
    # stalls; the guard must still catch one rather than run to the cap
    real = solvers.objective_from_residual
    calls = []

    def nan_from_sweep_5(p, x, r):
        calls.append(None)
        return real(p, x, r) if len(calls) <= 5 else float("nan")

    monkeypatch.setattr(solvers, "objective_from_residual", nan_from_sweep_5)
    p, _ = small_problem(seed=3)
    bound = l_max if run is gaita_run else spectral_norm_sq
    _, trace = run(p, np.zeros(p.n),
                   SolverConfig(mu=0.5 / bound(p.A), max_sweeps=100, stop="cap"))
    assert trace.flags["diverged"] and trace.flags["sweeps"] == 5
    assert not trace.flags["converged"]
    assert np.isnan(trace.rows[-1][2])


@pytest.mark.parametrize("run", [gaita_run, jaita_run])
@pytest.mark.parametrize("y", [-1e308, -1e152], ids=["inf-objective",
                                                   "guard-overflows"])
def test_unguardable_start_is_divergence(run, y):
    # an initial objective of inf, or of 2e304, whose 1e6-fold guard is
    # inf: no later objective could exceed the guard, so the run ends at
    # sweep 0 instead of running on to the cap or until the prox stalls
    p = ProblemInstance(A=np.full((4, 3), 0.5), y=np.full(4, y), lam=0.01, q=0.5)
    config = SolverConfig(mu=1.0, stop="cap")
    with np.errstate(over="ignore"):
        got = run(p, np.zeros(3), config)
        want = plain_run(p, np.zeros(3), config, run.__name__.removesuffix("_run"))
    state, trace = got
    assert trace.flags["diverged"] and trace.flags["sweeps"] == 0
    assert not trace.flags["converged"] and not trace.flags["did_not_converge"]
    assert len(trace) == 1 and not np.any(state.x)
    _assert_same_run(got, want)


class TestTraceIO:
    def test_csv_round_trip(self, tmp_path):
        p, inst = small_problem(seed=14)
        config = SolverConfig(mu=0.95 / l_max(p.A), reference=inst.x_true)
        _, trace = gaita_run(p, np.zeros(p.n), config)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header, back = read_trace_csv(path)
        assert header == IterationTrace.COLUMNS
        assert len(back) == len(trace)
        for a, b in zip(trace.rows, back):
            for va, vb in zip(a, b):
                assert va == vb or (np.isnan(va) and np.isnan(vb))


class TestSignHistory:
    """The sign history is derived from the kept iterates."""

    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("run, bound", [(gaita_run, l_max),
                                            (jaita_run, spectral_norm_sq)])
    def test_signs_of_the_kept_iterates(self, run, bound, every):
        p, _ = small_problem(seed=3)
        config = SolverConfig(mu=0.95 / bound(p.A), max_sweeps=40, stop="cap",
                              record_every=every, record_iterates=True)
        _, trace = run(p, np.zeros(p.n), config)
        signs = trace.sign_history()
        want = np.sign(np.vstack(trace.iterates)).astype(np.int8)
        assert signs.dtype == want.dtype and signs.shape == (len(trace), p.n)
        assert signs.tobytes() == want.tobytes()

    def test_needs_kept_iterates(self):
        p, _ = small_problem(seed=3)
        _, trace = gaita_run(p, np.zeros(p.n),
                             SolverConfig(mu=0.95 / l_max(p.A), max_sweeps=5))
        assert trace.signs == []  # perfbench's recorder sums their bytes
        with pytest.raises(InvalidInstance, match="record_iterates"):
            trace.sign_history()


class TestConfigValidation:
    def test_rejects_nonpositive_mu(self):
        with pytest.raises(InvalidInstance):
            SolverConfig(mu=0.0)

    def test_rejects_bad_record_every(self):
        with pytest.raises(InvalidInstance):
            SolverConfig(mu=0.5, record_every=0)

    def test_rejects_zero_reference(self):
        with pytest.raises(InvalidInstance, match="reference is zero"):
            SolverConfig(mu=0.5, reference=np.zeros(3))

    def test_rmse_stop_needs_reference(self):
        with pytest.raises(InvalidInstance, match="needs a nonzero reference"):
            SolverConfig(mu=0.5, stop="rmse", tol=1e-2)

    @pytest.mark.parametrize("bad", [{"stop": "bogus"}, {"tol": float("nan")},
                                     {"tol": -1.0}], ids=["stop", "nan-tol", "negative-tol"])
    def test_rejects_bad_stop_or_tol(self, bad):
        with pytest.raises(InvalidInstance):
            SolverConfig(mu=0.5, **bad)

    def test_tol_default(self):
        assert SolverConfig(mu=0.5).tol == 1e-10

    def test_rejects_reference_of_wrong_length(self):
        # a length-1 reference would broadcast against x without a word
        p, _ = small_problem(seed=3)
        config = SolverConfig(mu=0.5 / l_max(p.A), reference=np.array([1.0]))
        for run in (gaita_run, jaita_run):
            with pytest.raises(DimensionMismatch, match="reference has length 1"):
                run(p, np.zeros(p.n), config)
