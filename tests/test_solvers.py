import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lqsolve import _csweep, cli, solvers
from lqsolve.core import ProblemInstance, l_max, objective, spectral_norm_sq
from lqsolve.errors import DimensionMismatch, InvalidInstance
from lqsolve.harness import InstanceSpec, generate_instance
from lqsolve.prox import ProxParams, prox_vector
from lqsolve.solvers import IterationTrace, SolverConfig, gaita_run, jaita_run

from conftest import (bisect_root, gaita_update, initial_state, lane_norm,
                      penalty_oracle, plain_run, prox_vector_oracle, read_trace_csv,
                      refresh_oracle, small_problem, sweep_oracle)


class TestGaitaUpdate:
    def test_unit_worked_example(self, unit_problem):
        # first update solves v + 0.5/sqrt(v) = 2 on [1, 2]
        state = initial_state(unit_problem, np.zeros(1))
        config = SolverConfig(mu=1.0)
        new = gaita_update(state, unit_problem, config)
        import math
        expected = bisect_root(lambda v: v + 0.5 / math.sqrt(v) - 2.0, 1.0, 2.0)
        assert new.x[0] == pytest.approx(expected, abs=1e-9)
        assert new.n == 1

    def test_fixed_point_is_unchanged(self, unit_problem):
        state = initial_state(unit_problem, np.zeros(1))
        config = SolverConfig(mu=1.0)
        s1 = gaita_update(state, unit_problem, config)
        s2 = gaita_update(s1, unit_problem, config)
        assert s2.x[0] == pytest.approx(s1.x[0], abs=1e-9)

    def test_residual_matches_recomputation(self):
        p, _ = small_problem(seed=2)
        config = SolverConfig(mu=0.5 / l_max(p.A))
        state = initial_state(p, np.zeros(p.n))
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
        state = initial_state(p, np.zeros(p.n))
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
        assert state.objective == objective(p, state.x)

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
        ref = initial_state(p, np.zeros(p.n))
        for sweep in range(5):
            for _ in range(p.n):
                ref = gaita_update(ref, p, config)
            # the run loop refreshes the cached residual once per sweep
            ref.residual = refresh_oracle(p.A, ref.x, p.y)[0]
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
        for q, factor, sweeps, spec in self.KERNEL_CASES:
            p, _ = small_problem(q=q, **spec)
            x = np.zeros(p.n)
            assert_sweeps_match(p, x, refresh_oracle(p.A, x, p.y)[0],
                                factor / l_max(p.A), sweeps)

    def test_run_on_the_kernel_matches_the_run_on_the_oracle(self, monkeypatch):
        # gaita_run on the kernel's sweep and on the oracle sweep
        for q, factor, sweeps, spec in self.KERNEL_CASES:
            p, inst = small_problem(q=q, **spec)
            config = SolverConfig(mu=factor / l_max(p.A), max_sweeps=sweeps,
                                  stop="cap",
                                  reference=inst.x_true)
            runs = []
            for kernel in (solvers._sweep, sweep_oracle):
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


def test_an_infinite_forward_step_thresholds_to_infinity():
    # an overflowing forward step gives x[i] the infinity's sign, in gaita's
    # sweep and in jaita's vector prox alike, whether the root has a closed
    # form (q = 1/2, 2/3) or is found by Newton (q = 0.9), and the oracles
    # agree bit for bit
    A = np.full((4, 3), 0.5, order="F")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for q in (0.5, 2.0 / 3.0, 0.9):
            params = ProxParams(c=0.01, q=q)
            for big in (1e308, -1e308):  # z = -inf, then z = +inf
                x, r = np.zeros(3), np.full(4, big)
                xp, rp = x.copy(), r.copy()
                solvers._sweep(A, x, r, 1.0, params)()
                sweep_oracle(A, xp, rp, 1.0, params)()
                assert x[0] == -np.sign(big) * np.inf
                assert x.tobytes() == xp.tobytes() and r.tobytes() == rp.tobytes()
                z = np.array([0.5, -np.sign(big) * np.inf])
                out = prox_vector(z, np.zeros(2), params)
                assert out[1] == z[1]
                assert out.tobytes() == prox_vector_oracle(z, np.zeros(2), params).tobytes()
    assert [str(w.message) for w in caught] == []


def test_a_run_that_overflows_ends_diverged():
    # from a finite initial objective (2e300), mu = 1e300 makes the first
    # forward step overflow: both solvers flag it at sweep 1, as the
    # oracle loop does
    config = SolverConfig(mu=1e300)
    for q in (0.5, 2.0 / 3.0, 0.9):
        p = ProblemInstance(A=np.full((4, 3), 0.5), y=np.full(4, -1e150),
                            lam=0.01, q=q)
        for algorithm, run in (("gaita", gaita_run), ("jaita", jaita_run)):
            got = run(p, np.zeros(3), config)
            assert got[1].flags["diverged"] and got[1].flags["sweeps"] == 1
            with np.errstate(over="ignore", invalid="ignore"):
                _assert_same_run(got, plain_run(p, np.zeros(3), config, algorithm))


def refresh(A, y, x, r):
    """Set r = A x - y in place through the run loop's measure, whose
    kernel call refreshes r; returns r . r, read from the call's out
    buffer."""
    p = SimpleNamespace(A=A, y=y, lam=1.0, q=0.5, m=A.shape[0], n=A.shape[1])
    measure = solvers._measure(p, x, x.copy(), r, None)
    measure()
    return measure.out[1]


@pytest.fixture(scope="module")
def paper_instance():
    """The paper's 250 x 500 instance with 15 nonzeros, seed 0."""
    return generate_instance(InstanceSpec(250, 500, 15, seed=0))


@pytest.mark.parametrize("q", [0.5, 2 / 3, 0.9])
@pytest.mark.parametrize("algorithm", ["gaita", "jaita"])
def test_objective_is_the_final_states_bit_for_bit(algorithm, q, paper_instance):
    # core.objective makes the run loop's measure call once, so it gives a
    # run's final objective exactly
    p = paper_instance.problem(0.001, q)
    run = gaita_run if algorithm == "gaita" else jaita_run
    state, _ = run(p, np.zeros(p.n),
                   SolverConfig(mu=solvers.default_mu(algorithm, p.A)))
    assert state.objective == objective(p, state.x)


def assert_sweeps_match(p, x, r, mu, sweeps):
    """Sweep x and r = A x - y with the kernel, and copies of them with the
    oracle, refreshing r after each sweep, the kernel's r with the kernel's
    measure and the copy with refresh_oracle: x and r keep the same bits."""
    params = ProxParams(c=p.lam * mu, q=p.q)
    xp, rp = x.copy(), r.copy()
    sweep_c = solvers._sweep(p.A, x, r, mu, params)
    measure_c = solvers._measure(p, x, x.copy(), r, None)
    sweep_py = sweep_oracle(p.A, xp, rp, mu, params)
    for k in range(sweeps):
        assert 0 <= sweep_c() <= p.n  # the columns screening skipped
        sweep_py()
        assert x.tobytes() == xp.tobytes() and r.tobytes() == rp.tobytes(), k
        measure_c()
        rr = measure_c.out[1]
        rp[:], rr_py = refresh_oracle(p.A, xp, p.y)
        assert r.tobytes() == rp.tobytes() and repr(rr) == repr(rr_py), k


# residual lengths at and around the widths of the kernel's vector lanes
# (2, 4 and 8 doubles) and its dot product's 32 partial sums, so that each
# remainder loop runs
@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33,
                               63, 64, 65])
def test_kernel_matches_pure_python_at_every_lane_remainder(m):
    p, _ = small_problem(seed=m, m=m, n=2 * m + 3, k=1)
    # offset 1: x and r are views that start one double into a buffer
    for offset in (0, 1):
        x = np.zeros(p.n + offset)[offset:]
        r = np.zeros(p.m + offset)[offset:]
        r[:] = refresh_oracle(p.A, x, p.y)[0]
        assert_sweeps_match(p, x, r, 0.95 / l_max(p.A), 8)
        assert np.any(x != 0.0)  # the residual update ran


# every remainder of the refresh's four-column groups, and a full support
@pytest.mark.parametrize("support", [*range(10), 500])
def test_refresh_matches_the_oracle(support):
    # the measure's refresh against refresh_oracle byte for byte, r and
    # r . r.  Some of y's entries are zero and some of x's zeros are -0.0:
    # with no support, adding the -0.0 columns would turn some of those
    # entries of r from -0.0 to +0.0
    rng = np.random.default_rng(support)
    A = np.asfortranarray(rng.standard_normal((250, 500)))
    y = rng.standard_normal(250)
    y[::7] = 0.0
    x = np.zeros(500)
    x[rng.choice(500, support, replace=False)] = rng.standard_normal(support)
    x[np.flatnonzero(x == 0.0)[::3]] = -0.0
    r = np.full(250, np.nan)
    rr = refresh(A, y, x, r)
    want, rr_want = refresh_oracle(A, x, y)
    assert r.tobytes() == want.tobytes() and repr(rr) == repr(rr_want)
    if support == 0:
        assert np.signbit(r[y == 0.0]).all()


def test_refresh_carries_an_infinite_x():
    # an overflowed x: its infinities reach r and r . r as infinities, and,
    # against a zero entry of A (inf * 0), as NaN, as in the oracle
    A = np.asfortranarray(np.arange(12.0).reshape(4, 3) - 4.0)
    x, y = np.array([np.inf, 0.5, -np.inf]), np.ones(4)
    r = np.empty(4)
    rr = refresh(A, y, x, r)
    with np.errstate(invalid="ignore"):
        want, rr_want = refresh_oracle(A, x, y)
    assert np.isnan(r).any() and np.isinf(r).any() and np.isnan(rr)
    assert r.tobytes() == want.tobytes() and repr(rr) == repr(rr_want)
    x[1:] = 0.0
    rr = refresh(A, y, x, r)
    assert np.isinf(r[[0, 2, 3]]).all() and rr == np.inf


def measure_case(case):
    """(problem, x0, reference) for test_measure_matches_the_oracles."""
    if case == "inf":
        # mu = 1e300 below makes the first forward step overflow
        p = ProblemInstance(A=np.full((4, 3), 0.5), y=np.full(4, -1e150),
                            lam=0.01, q=0.9)
        return p, np.zeros(3), np.array([1.0, -2.0, 0.5])
    if case == "signed_zero":
        # y = 0 keeps every coordinate at zero
        p, _ = small_problem(seed=5)
        p = ProblemInstance(A=p.A, y=np.zeros(p.m), lam=p.lam, q=p.q)
        return p, np.full(p.n, -0.0), None
    p, inst = small_problem(seed=5, q=2 / 3)
    x0 = np.zeros(p.n)
    x0[::3] = -0.0
    x0[np.flatnonzero(inst.x_true)] = 0.9 * inst.x_true[inst.x_true != 0.0]
    x0[1] = 0.3
    return p, x0, inst.x_true if case == "ref" else None


@pytest.mark.parametrize("case", ["ref", "no_ref", "signed_zero", "inf"])
@pytest.mark.parametrize("algorithm", ["gaita", "jaita"])
def test_measure_matches_the_oracles(algorithm, case):
    # the run loop's one kernel call after a step, against the oracles byte
    # for byte: the step norm, the refreshed r and its objective, the rmse
    # and the support size; and it leaves x_before = x
    p, x0, ref = measure_case(case)
    mu = 1e300 if case == "inf" else solvers.default_mu(algorithm, p.A)
    bind = solvers._sweep if algorithm == "gaita" else solvers._jacobi_step
    x, x_before, r = x0.copy(), x0.copy(), np.empty(p.m)
    with np.errstate(over="ignore", invalid="ignore"):
        measure = solvers._measure(p, x, x_before, r, ref)
        measure()  # the initial r = A x0 - y, as for the run loop's row 0
        bind(p.A, x, r, mu, ProxParams(c=p.lam * mu, q=p.q))()
        got = measure()
        r_want, rr = refresh_oracle(p.A, x, p.y)
        want = (0.5 * rr + p.lam * penalty_oracle(x, p.q), lane_norm(x - x0),
                lane_norm(x - ref) / lane_norm(ref) if ref is not None else np.nan,
                int(np.count_nonzero(x)))
    assert repr(got) == repr(want) and repr(measure.out[1]) == repr(rr)
    assert r.tobytes() == r_want.tobytes() and x_before.tobytes() == x.tobytes()
    if case == "signed_zero":  # -0.0 to 0.0 is no step
        assert got[:2] == (0.0, 0.0) and got[3] == 0
    elif case == "inf":
        assert np.isinf(x).any() and got[1] == got[2] == np.inf
    else:
        assert got[1] > 0.0 and got[3] > 0


@pytest.mark.parametrize("bad, error", [
    ("c_ordered_A", InvalidInstance), ("float32_x", InvalidInstance),
    ("read_only_x", InvalidInstance), ("short_r", DimensionMismatch),
    ("long_x", DimensionMismatch)])
def test_c_kernel_rejects_bad_arrays(bad, error):
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
        solvers._sweep(A, x, r, 0.1, ProxParams(c=0.01, q=0.5))
    p = SimpleNamespace(A=A, y=np.zeros(4), lam=0.01, q=0.5, m=4, n=3)
    with pytest.raises(error):  # x as the iterate, then as x_before
        solvers._measure(p, x, np.zeros(3), r, None)
    with pytest.raises(error):
        solvers._measure(p, np.zeros(3), x, r, None)


def test_kernel_builds_into_an_empty_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(_csweep, "CACHE", tmp_path)
    handles = _csweep.load()
    assert [h.__name__ for h in handles] == ["lq_sweep", "lq_prox", "lq_parse",
                                             "lq_measure", "lq_dot"]
    assert [f.suffix for f in tmp_path.iterdir()] == [".so"]


def test_kernel_compiles_without_warnings(tmp_path):
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found")
    proc = subprocess.run([gcc, *_csweep.FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "sweep.so"), str(_csweep.SOURCE), "-lm"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_kernel_flags_keep_ieee_rounding():
    # the kernel's bits equal the oracles' (numpy's, for the residual
    # update) only when every operation rounds alone and no sum is
    # reordered; -march=native would also tie the cached build to the CPU
    # that compiled it
    assert "-ffp-contract=off" in _csweep.FLAGS
    assert not {"-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                "-fassociative-math", "-march=native"} & set(_csweep.FLAGS)


# OpenBLAS's x86 kernels, each with the CPU flag it needs
BLAS_CORE_TYPES = {"Sandybridge": "avx", "Haswell": "avx2", "SkylakeX": "avx512f"}


def blas_core_types():
    """The OpenBLAS x86 kernels this CPU runs."""
    cpuinfo = Path("/proc/cpuinfo")
    flags = set(cpuinfo.read_text().split()) if cpuinfo.exists() else set()
    return [core for core, flag in BLAS_CORE_TYPES.items() if flag in flags]


def test_sweep_bits_do_not_depend_on_the_blas_kernel():
    # one sweep from fixed random (A, x, r), with no gemv, in a fresh
    # process per OpenBLAS kernel: the sweep calls no BLAS, so the bytes
    # agree whichever kernel numpy's BLAS picked
    cores = blas_core_types()
    if len(cores) < 2:
        pytest.skip("the CPU runs fewer than two of OpenBLAS's x86 kernels")
    script = (
        "import hashlib, numpy as np\n"
        "from lqsolve import solvers\n"
        "from lqsolve.prox import ProxParams\n"
        "rng = np.random.default_rng(7)\n"
        "A = np.asfortranarray(rng.standard_normal((250, 500)))\n"
        "x = np.where(rng.random(500) < 0.2, rng.standard_normal(500), 0.0)\n"
        "r = rng.standard_normal(250)\n"
        "solvers._sweep(A, x, r, 1e-3, ProxParams(c=1e-3, q=0.5))()\n"
        "print(np.count_nonzero(x), hashlib.sha256(x.tobytes() + r.tobytes()).hexdigest())\n")
    src = str(Path(_csweep.__file__).parent.parent)
    outputs = set()
    for core in cores:
        env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (core, proc.stderr)
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs
    assert int(outputs.pop().split()[0]) > 0  # the sweep moved x


def test_gaita_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # `lqsolve solve` (gaita, q = 1/2) in a fresh process per OpenBLAS
    # kernel: the sweep, the refresh r = A x - y, r . r and the loop's norms
    # run in the C kernel, so solution.csv and trace.csv have one hash, and
    # summary.json the same flags, final_objective and final_rmse.  Its
    # stationarity block comes from diagnostics, whose products go through
    # the BLAS, so it may differ and is not compared.  The instance is
    # generated once and read by every run: gen's y = A x_true is a BLAS
    # product too
    cores = blas_core_types()
    if len(cores) < 2:
        pytest.skip("the CPU runs fewer than two of OpenBLAS's x86 kernels")
    src = str(Path(_csweep.__file__).parent.parent)
    instance = tmp_path / "instance"
    assert cli.main(["gen", "--out-dir", str(instance), "--quiet"]) == 0
    runs = set()
    for core in cores:
        out = tmp_path / core
        env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "lqsolve.cli", "solve",
                               "--instance-dir", str(instance), "--q", "0.5",
                               "--out-dir", str(out), "--quiet"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (core, proc.stderr)
        summary = json.loads((out / "summary.json").read_text())
        runs.add((hashlib.sha256((out / "solution.csv").read_bytes()).hexdigest(),
                  hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest(),
                  json.dumps(summary["flags"], sort_keys=True),
                  repr(summary["final_objective"]), repr(summary["final_rmse"])))
    assert len(runs) == 1, runs


@pytest.mark.parametrize("fault, reason", [
    ("no_gcc", "^gcc not found$"), ("bad_source", "^gcc failed: ")])
def test_unbuildable_kernel_reports_why(fault, reason, tmp_path, monkeypatch):
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


def test_import_fails_without_the_kernel(tmp_path):
    # a fresh copy of the package, with no cached build, on a PATH without
    # gcc: the import stops and its last line says why
    shutil.copytree(Path(_csweep.__file__).parent, tmp_path / "lqsolve",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PATH=str(tmp_path), PYTHONPATH=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", "import lqsolve"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stderr.strip().splitlines()[-1].endswith("gcc not found")


def one_jaita_step(p, x0, mu):
    state, _ = jaita_run(p, x0, SolverConfig(mu=mu, max_sweeps=1, stop="cap"))
    return state


class TestJaita:
    def test_update_keeps_fixed_point(self, unit_problem):
        config = SolverConfig(mu=1.0)
        state = initial_state(unit_problem, np.zeros(1))
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
        assert state.objective == objective(p, state.x)

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


@pytest.mark.parametrize("every", [3, 7])
@pytest.mark.parametrize("run, bound, factor", [
    (gaita_run, l_max, 0.95), (jaita_run, spectral_norm_sq, 0.99)])
def test_thinned_trace_keeps_the_full_traces_rows(run, bound, factor, every):
    # step_norm is the step of the row's own sweep, so a thinned trace is
    # the full trace at its sweeps, the final sweep 20 included
    p, _ = small_problem(seed=3)
    settings = dict(mu=factor / bound(p.A), max_sweeps=20, stop="cap")
    _, full = run(p, np.zeros(p.n), SolverConfig(**settings))
    _, thin = run(p, np.zeros(p.n), SolverConfig(**settings, record_every=every))
    kept = [row for row in full.rows if row[0] % every == 0 or row[0] == 20]
    assert repr(thin.rows) == repr(kept)


@pytest.mark.parametrize("algorithm", ["gaita", "jaita"])
def test_iterate_change_stops_at_the_first_small_step_norm(algorithm):
    # both solvers stop on the trace's step_norm: the run ends at the first
    # sweep whose step_norm is <= tol in a capped run of the same problem
    # (for gaita here, one sweep after the largest single-coordinate change
    # first falls below tol)
    p = generate_instance(InstanceSpec(250, 500, 15, seed=0)).problem(0.001, 2 / 3)
    run = gaita_run if algorithm == "gaita" else jaita_run
    mu = solvers.default_mu(algorithm, p.A)
    _, stopped = run(p, np.zeros(p.n), SolverConfig(mu=mu, tol=1e-10))
    assert stopped.flags["converged"]
    sweeps = stopped.flags["sweeps"]
    _, capped = run(p, np.zeros(p.n),
                    SolverConfig(mu=mu, max_sweeps=sweeps + 10, stop="cap"))
    steps = capped.column("step_norm")
    assert int(np.flatnonzero(steps <= 1e-10)[0]) == sweeps
    assert repr(stopped.rows) == repr(capped.rows[:sweeps + 1])


@pytest.fixture(scope="module")
def noisy_instance():
    """The 250x500x15 instance of the mu_sweep preset at seed 0 (30 dB)."""
    return generate_instance(InstanceSpec(250, 500, 15, snr_db=30.0, seed=0))


def count_skipped(monkeypatch):
    """From here on, each sweep of the C kernel appends to the returned
    list the number of columns that screening skipped, which the sweep
    returns."""
    bind, skipped = solvers._sweep, []

    def counted(*args):
        sweep = bind(*args)
        return lambda: skipped.append(sweep())

    monkeypatch.setattr(solvers, "_sweep", counted)
    return skipped


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
        skipped = count_skipped(monkeypatch)
        got = gaita_run(p, np.zeros(p.n), config)
        assert len(skipped) == cap
        assert skipped[0] == 0  # no column has a bound before its first dot product
        assert max(skipped) <= p.n and sum(skipped) > 0.75 * cap * p.n
        _assert_same_run(got, plain_run(p, np.zeros(p.n), config, "gaita"))

    def test_screening_sees_r_move_between_sweeps(self, noisy_instance):
        # at the fixed point every zero coordinate is screened; then r is
        # pushed along one zero column until that coordinate must enter
        p = noisy_instance.problem(0.009, 0.5)
        mu = 0.5
        params = ProxParams(c=p.lam * mu, q=p.q)
        x = np.zeros(p.n)
        r = refresh_oracle(p.A, x, p.y)[0]
        sweep = solvers._sweep(p.A, x, r, mu, params)
        for _ in range(150):
            sweep()
            r[:] = refresh_oracle(p.A, x, p.y)[0]
        j = int(np.flatnonzero(x == 0.0)[0])
        col = p.A[:, j]
        r += 2.0 * params.tau / mu * col / (col @ col)
        xp, rp = x.copy(), r.copy()
        sweep()
        sweep_oracle(p.A, xp, rp, mu, params)()
        assert x.tobytes() == xp.tobytes() and r.tobytes() == rp.tobytes()
        assert x[j] != 0.0

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
    # an objective that turns NaN ends the run flagged, rather than running
    # on to the cap.  The loop measures once for row 0, then once a sweep:
    # from the sixth call, sweep 5's, the measured objective is NaN
    bind = solvers._measure

    def nan_from_sweep_5(*args):
        measure, calls = bind(*args), []

        def measured():
            calls.append(None)
            obj, *rest = measure()
            return (obj if len(calls) <= 5 else float("nan"), *rest)

        return measured

    monkeypatch.setattr(solvers, "_measure", nan_from_sweep_5)
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
    # sweep 0 instead of running on to the cap
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


def test_overflowing_start_warns_nothing():
    # the loop runs with numpy's overflow warnings off: an initial
    # objective of inf ends the run flagged at sweep 0, and that is all
    p = ProblemInstance(A=np.full((2, 2), 0.5), y=np.full(2, -1e308), lam=0.01, q=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (gaita_run, jaita_run):
            _, trace = run(p, np.zeros(2), SolverConfig(mu=1.0))
            assert trace.flags["diverged"] and trace.flags["sweeps"] == 0


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

    def test_rejects_a_reference_whose_norm_underflows(self):
        # its squares sum to 0, so the rmse column would divide by zero
        with pytest.raises(InvalidInstance, match="2-norm underflows"):
            SolverConfig(mu=0.5, reference=np.array([1e-200, 0.0]))

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
