import dataclasses
import json

import numpy as np
import pytest

from lqsolve.errors import InvalidInstance
from lqsolve.harness import (FIG4_MU_GRID, MU_GRID, Q_GRID, InstanceSpec,
                             add_noise_snr, generate_instance, rmse,
                             run_experiment)


class TestNoise:
    def test_snr_calibration_is_exact(self, rng):
        signal = rng.standard_normal(200)
        noisy = add_noise_snr(signal, 30.0, seed=5)
        eps = noisy - signal
        snr_db = 10.0 * np.log10(
            np.linalg.norm(signal) ** 2 / np.linalg.norm(eps) ** 2)
        assert snr_db == pytest.approx(30.0, abs=1e-9)

    def test_high_snr_means_no_noise(self, rng):
        signal = rng.standard_normal(50)
        assert np.array_equal(add_noise_snr(signal, 300.0, seed=1), signal)

    def test_same_seed_same_noise(self, rng):
        signal = rng.standard_normal(50)
        a = add_noise_snr(signal, 20.0, seed=9)
        b = add_noise_snr(signal, 20.0, seed=9)
        assert np.array_equal(a, b)

    def test_zero_signal_rejected(self):
        with pytest.raises(InvalidInstance):
            add_noise_snr(np.zeros(10), 30.0, seed=0)


class TestGenerate:
    def test_shapes_and_sparsity(self):
        inst = generate_instance(InstanceSpec(30, 60, 5, seed=0))
        assert inst.A.shape == (30, 60)
        assert inst.y.shape == (30,)
        assert np.count_nonzero(inst.x_true) == 5

    def test_columns_are_normalized(self):
        inst = generate_instance(InstanceSpec(40, 80, 6, seed=1))
        norms = np.linalg.norm(inst.A, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_unnormalized_variant(self):
        inst = generate_instance(
            InstanceSpec(40, 80, 6, column_normalize=False, seed=1))
        norms = np.linalg.norm(inst.A, axis=0)
        assert not np.allclose(norms, 1.0, atol=1e-2)
        # entries are N(0, 1/m), so squared column norms concentrate near 1
        assert 0.5 < float(np.mean(norms ** 2)) < 1.5

    def test_noiseless_observation_is_exact(self):
        inst = generate_instance(InstanceSpec(30, 60, 5, seed=2))
        assert np.array_equal(inst.y, inst.A @ inst.x_true)

    def test_bit_reproducible(self):
        a = generate_instance(InstanceSpec(30, 60, 5, snr_db=20.0, seed=3))
        b = generate_instance(InstanceSpec(30, 60, 5, snr_db=20.0, seed=3))
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x_true, b.x_true)

    def test_noise_stream_is_separate(self):
        clean = generate_instance(InstanceSpec(30, 60, 5, seed=4))
        noisy = generate_instance(InstanceSpec(30, 60, 5, snr_db=30.0, seed=4))
        assert np.array_equal(clean.A, noisy.A)
        assert np.array_equal(clean.x_true, noisy.x_true)
        assert not np.array_equal(clean.y, noisy.y)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(InvalidInstance):
            InstanceSpec(0, 10, 2)
        with pytest.raises(InvalidInstance):
            InstanceSpec(5, 10, 11)


class TestRmse:
    def test_exact_recovery_is_zero(self, rng):
        x = rng.standard_normal(10)
        assert rmse(x, x) == 0.0

    def test_relative_scaling(self):
        assert rmse(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(InvalidInstance):
            rmse(np.ones(3), np.zeros(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInstance):
            rmse(np.ones(3), np.ones(4))


DESK = {"m": 30, "n": 60, "k_star": 4}


class TestExperiments:
    def test_unknown_preset_rejected(self):
        with pytest.raises(InvalidInstance):
            run_experiment("fig2")

    def test_unknown_override_rejected(self):
        with pytest.raises(InvalidInstance):
            run_experiment("fig1", {"bogus": 1})

    def test_fig1_structure(self):
        result = run_experiment("fig1", dict(DESK, max_sweeps=300), seed=0)
        assert result.preset == "fig1"
        assert [r.algorithm for r in result.runs] == ["gaita", "jaita"] * 2
        gaita_runs = [r for r in result.runs if r.algorithm == "gaita"]
        for run in gaita_runs:
            obj = np.array(run.objective_trace)
            assert np.all(np.diff(obj) <= 1e-12)

    def test_fig3_error_traces_present(self):
        result = run_experiment(
            "fig3", dict(DESK, max_sweeps=300, max_sweeps_jaita=3000,
                         q_list=(0.5,)), seed=0)
        for run in result.runs:
            assert len(run.error_trace) == len(run.objective_trace)
            assert run.error_trace_vs_limit[-1] == pytest.approx(0.0, abs=1e-12)

    def test_fig4_covers_grid(self):
        result = run_experiment("fig4", dict(DESK, max_sweeps=400), seed=0)
        mus = sorted({r.mu for r in result.runs})
        assert mus == sorted(FIG4_MU_GRID)
        assert len(result.runs) == 2 * len(FIG4_MU_GRID)

    def test_mu_sweep_covers_grid(self):
        result = run_experiment(
            "mu_sweep",
            dict(DESK, max_sweeps=200, mu_list=(0.1, 0.95), q_list=(0.5,)),
            seed=0)
        assert len(result.runs) == 2
        for run in result.runs:
            assert run.final_rmse is not None

    def test_json_is_deterministic(self):
        overrides = dict(DESK, max_sweeps=200)
        a = run_experiment("fig1", overrides, seed=1).to_json()
        b = run_experiment("fig1", overrides, seed=1).to_json()
        assert a == b

    @pytest.mark.parametrize("preset, caps", [
        ("fig1", {"max_sweeps": 60}),
        ("fig3", {"max_sweeps": 60, "max_sweeps_jaita": 90}),
        ("fig4", {"max_sweeps": 60}),
        ("mu_sweep", {"max_sweeps": 60, "mu_list": (0.3, 0.95), "q_list": (0.5,)})])
    def test_json_is_the_asdict_form(self, preset, caps):
        # to_json reads each run's fields instead of deep-copying the run
        # with dataclasses.asdict; the bytes must be those of the copy
        result = run_experiment(preset, dict(DESK, **caps), seed=0)
        runs = []
        for run in result.runs:
            d = dataclasses.asdict(run)
            d.pop("trace")
            d.pop("final_x")
            runs.append(d)
        payload = {"preset": result.preset, "seed": result.seed,
                   "config": result.config, "runs": runs}
        assert result.to_json() == json.dumps(payload, indent=2, sort_keys=True)

    def test_support_recovery_on_noiseless_instances(self):
        # q=1/2, small lam: the solver should nail the true support on
        # most (m, N, k*) = (50, 100, 5) draws
        from lqsolve.core import l_max
        from lqsolve.solvers import SolverConfig, gaita_run
        hits = 0
        for seed in range(10):
            inst = generate_instance(InstanceSpec(50, 100, 5, seed=seed))
            p = inst.problem(0.001, 0.5)
            state, _ = gaita_run(p, np.zeros(p.n),
                                 SolverConfig(mu=0.95 / l_max(p.A),
                                              max_sweeps=2000))
            if np.array_equal(np.nonzero(state.x)[0],
                              np.nonzero(inst.x_true)[0]):
                hits += 1
        assert hits >= 8

    def test_grids_are_pinned(self):
        assert MU_GRID == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
        assert Q_GRID == (0.1, 0.3, 0.5, 0.7, 0.9)
        assert FIG4_MU_GRID == (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
