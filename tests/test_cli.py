import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lqsolve import _csweep, cli, harness, solvers
from lqsolve.errors import LqsolveError

from conftest import read_trace_csv


def run_cli(*argv):
    return cli.main(list(argv))


_opened = None  # names of the files opened, while opened_files records them
_hooked = False


def _audit_open(event, args):
    if event == "open" and _opened is not None and args[0] is not None:
        _opened.append(Path(str(args[0])).name)


@pytest.fixture
def opened_files():
    """Names of the files opened during the test.  An audit hook sees every
    way of opening a file; it cannot be removed, so it stays installed and
    idle outside this fixture."""
    global _opened, _hooked
    if not _hooked:
        sys.addaudithook(_audit_open)
        _hooked = True
    _opened = []
    yield _opened
    _opened = None


GEN_SMALL = ("gen", "--m", "20", "--n", "40", "--k", "3", "--seed", "7")


class TestArrayIO:
    def test_matrix_round_trip(self, tmp_path, rng):
        a = rng.standard_normal((7, 5))
        path = tmp_path / "a.csv"
        cli.write_array(path, a)
        assert np.array_equal(cli.read_array(path), a)
        assert path.read_text().splitlines()[0] == "7,5"

    def test_vector_round_trip(self, tmp_path, rng):
        v = rng.standard_normal(9)
        path = tmp_path / "v.csv"
        cli.write_vector(path, v)
        assert np.array_equal(cli.read_vector(path), v)

    def test_header_mismatch_detected(self, tmp_path):
        # a short body, a one-field header, a non-number, an empty file
        for k, text in enumerate(("2,2\n1.0,2.0\n", "5\n1.0\n", "1,2\n1.0,abc\n", "")):
            path = tmp_path / f"bad{k}.csv"
            path.write_text(text)
            with pytest.raises(LqsolveError) as err:
                cli.read_array(path)
            assert str(err.value).startswith(f"{path}: ")


class TestGen:
    def test_writes_instance_files(self, tmp_path):
        out = tmp_path / "inst"
        assert run_cli(*GEN_SMALL, "--out-dir", str(out), "--quiet") == 0
        for name in ("A.csv", "y.csv", "x_true.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["spec"]["m"] == 20 and manifest["seed"] == 7
        assert len(manifest["spec_hash"]) == 64
        assert set(manifest["sha256"]) == {"A.csv", "y.csv", "x_true.csv"}

    def test_round_trip_through_load(self, tmp_path):
        out = tmp_path / "inst"
        run_cli(*GEN_SMALL, "--out-dir", str(out), "--quiet")
        inst = cli.load_instance(out)
        from lqsolve.harness import InstanceSpec, generate_instance
        fresh = generate_instance(InstanceSpec(20, 40, 3, seed=7))
        assert np.array_equal(inst.A, fresh.A)
        assert np.array_equal(inst.y, fresh.y)

    def test_regeneration_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(*GEN_SMALL, "--out-dir", str(out1), "--quiet")
        run_cli(*GEN_SMALL, "--out-dir", str(out2), "--quiet")
        for name in ("A.csv", "y.csv", "x_true.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_load_reads_each_file_once(self, tmp_path, opened_files):
        # the bytes parsed are the bytes whose sha256 was checked
        out = tmp_path / "inst"
        run_cli(*GEN_SMALL, "--out-dir", str(out), "--quiet")
        opened_files.clear()
        cli.load_instance(out)
        assert sorted(opened_files) == ["A.csv", "manifest.json", "x_true.csv", "y.csv"]

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("LQSOLVE_OUT_DIR", str(target))
        run_cli(*GEN_SMALL, "--quiet")
        assert (target / "manifest.json").exists()


@pytest.fixture
def instance_dir(tmp_path):
    out = tmp_path / "inst"
    run_cli(*GEN_SMALL, "--out-dir", str(out), "--quiet")
    return out


@pytest.fixture
def zero_instance_dir(tmp_path):
    """An instance whose ground truth is zero (k = 0), so y = 0."""
    out = tmp_path / "zero"
    run_cli("gen", "--m", "20", "--n", "40", "--k", "0", "--seed", "1",
            "--out-dir", str(out), "--quiet")
    return out


class TestSolve:
    def test_outputs_and_summary(self, tmp_path, instance_dir):
        out = tmp_path / "run"
        code = run_cli("solve", "--instance-dir", str(instance_dir),
                       "--lam", "0.001", "--q", "0.5",
                       "--max-sweeps", "500", "--out-dir", str(out), "--quiet")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flags"]["algorithm"] == "gaita"
        assert summary["flags"]["converged"]
        assert summary["config"]["lam"] == 0.001
        assert summary["stationarity"]["is_stationary"]
        _, rows = read_trace_csv(out / "trace.csv")
        assert len(rows) >= 2
        x = cli.read_vector(out / "solution.csv")
        assert len(x) == 40

    def test_max_sweeps_zero_echoes_initial_state(self, tmp_path, instance_dir):
        out = tmp_path / "run0"
        code = run_cli("solve", "--instance-dir", str(instance_dir),
                       "--max-sweeps", "0", "--out-dir", str(out), "--quiet")
        assert code == 0
        _, rows = read_trace_csv(out / "trace.csv")
        assert len(rows) == 1 and rows[0][0] == 0
        assert np.array_equal(cli.read_vector(out / "solution.csv"),
                              np.zeros(40))

    def test_jaita_algorithm(self, tmp_path, instance_dir):
        out = tmp_path / "runj"
        code = run_cli("solve", "--instance-dir", str(instance_dir),
                       "--algorithm", "jaita", "--lam", "0.001",
                       "--max-sweeps", "5000",
                       "--out-dir", str(out), "--quiet")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flags"]["algorithm"] == "jaita"

    def test_zero_ground_truth_leaves_rmse_nan(self, tmp_path, zero_instance_dir):
        out = tmp_path / "run"
        assert run_cli("solve", "--instance-dir", str(zero_instance_dir),
                       "--out-dir", str(out), "--quiet") == 0
        header, rows = read_trace_csv(out / "trace.csv")
        assert all(np.isnan(row[header.index("rmse")]) for row in rows)
        assert json.loads((out / "summary.json").read_text())["final_rmse"] is None

    def test_rmse_stop_needs_nonzero_ground_truth(self, tmp_path, zero_instance_dir,
                                                  capsys):
        assert run_cli("solve", "--instance-dir", str(zero_instance_dir), "--stop", "rmse",
                       "--out-dir", str(tmp_path / "run"), "--quiet") == 2
        assert "RMSE stop rule needs a nonzero reference" in capsys.readouterr().err

    def test_gaita_divergence_is_flagged(self, tmp_path):
        inst = tmp_path / "inst40"
        run_cli("gen", "--m", "40", "--n", "80", "--k", "4", "--seed", "0",
                "--out-dir", str(inst), "--quiet")
        out = tmp_path / "rund"
        code = run_cli("solve", "--instance-dir", str(inst),
                       "--algorithm", "gaita", "--mu", "2.5",
                       "--out-dir", str(out), "--quiet")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flags"]["diverged"]

    def test_config_file_and_flag_precedence(self, tmp_path, instance_dir):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"lam": 0.5, "q": 0.7, "max_sweeps": 100}))
        out = tmp_path / "runc"
        run_cli("solve", "--instance-dir", str(instance_dir),
                "--config", str(cfg_path), "--lam", "0.001",
                "--out-dir", str(out), "--quiet")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["lam"] == 0.001  # flag beats file
        assert summary["config"]["q"] == 0.7      # file beats default

    def test_summary_config_reproduces_run(self, tmp_path, instance_dir):
        out1 = tmp_path / "r1"
        run_cli("solve", "--instance-dir", str(instance_dir),
                "--lam", "0.001", "--q", "0.5", "--max-sweeps", "300",
                "--out-dir", str(out1), "--quiet")
        summary = json.loads((out1 / "summary.json").read_text())
        cfg_path = tmp_path / "replay.json"
        cfg_path.write_text(json.dumps(summary["config"]))
        out2 = tmp_path / "r2"
        run_cli("solve", "--config", str(cfg_path),
                "--out-dir", str(out2), "--quiet")
        assert (out1 / "trace.csv").read_bytes() == \
            (out2 / "trace.csv").read_bytes()
        assert (out1 / "solution.csv").read_bytes() == \
            (out2 / "solution.csv").read_bytes()

    def test_repeat_runs_byte_identical(self, tmp_path, instance_dir):
        outs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            run_cli("solve", "--instance-dir", str(instance_dir),
                    "--lam", "0.001", "--out-dir", str(out), "--quiet")
            outs.append(out)
        for fname in ("trace.csv", "summary.json", "solution.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


    def test_status_line_names_sweep_backend(self, tmp_path, instance_dir,
                                             capsys, monkeypatch):
        # the backend goes to the status line only; the files stay the same,
        # for gaita's sweep and for jaita's prox
        for backend in ("active", "python"):
            if backend == "python":
                monkeypatch.setattr(solvers, "_sweep", solvers._sweep_python)
                monkeypatch.setattr(_csweep, "lq_prox", None)
            for alg in ("gaita", "jaita"):
                code = run_cli("solve", "--instance-dir", str(instance_dir),
                               "--algorithm", alg, "--lam", "0.001",
                               "--out-dir", str(tmp_path / f"{alg}-{backend}"))
                assert code == 0
                status = capsys.readouterr().out
                if alg == "gaita":
                    assert f"(sweep: {solvers.sweep_backend()});" in status
        for alg in ("gaita", "jaita"):
            for fname in ("trace.csv", "summary.json", "solution.csv"):
                assert (tmp_path / f"{alg}-active" / fname).read_bytes() == \
                    (tmp_path / f"{alg}-python" / fname).read_bytes()


class TestExitCodes:
    def test_bad_flag_value(self, capsys):
        assert run_cli("solve", "--lam", "not-a-number") == 2

    @pytest.mark.parametrize("command,cfg", [
        (("solve",), {"stop": "bogus"}),
        (("solve",), {"algorithm": "bogus"}),
        (("solve",), {"lamda": 0.5}),
        (("solve",), {"max_sweeps": 50.5}),
        (("solve",), [1, 2]),
        (("compare", "--preset", "fig1"), {"k": 2}),  # compare's key is k_star
        # values argparse takes and SolverConfig rejects
        (("solve",), {"tol": -1}),
        (("solve",), {"mu": -1}),
        (("solve",), {"record_every": 0}),
    ], ids=["stop", "algorithm", "misspelt-key", "float-sweeps", "not-object",
            "compare-k", "negative-tol", "negative-mu", "zero-record-every"])
    def test_bad_stop_rule_in_config(self, command, cfg, tmp_path, instance_dir,
                                     capsys):
        # each bad config file exits 2 with one line on stderr, naming the
        # file, and writes nothing
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        target = ("--instance-dir", str(instance_dir)) if command == ("solve",) \
            else TestCompareAndSweep.DESK
        out = tmp_path / "out"
        code = run_cli(*command, *target, "--config", str(cfg_path),
                       "--out-dir", str(out), "--quiet")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"{cfg_path}: " in err
        assert not out.exists()

    @pytest.mark.parametrize("how", ["flag-nan", "config-negative"])
    def test_bad_tol_exits_2(self, how, tmp_path, instance_dir, capsys):
        # SolverConfig rejects the tol before anything runs or is written
        if how == "flag-nan":
            extra = ("--tol", "nan")
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"tol": -1}))
            extra = ("--config", str(cfg_path))
        out = tmp_path / "out"
        assert run_cli("solve", "--instance-dir", str(instance_dir), *extra,
                       "--out-dir", str(out), "--quiet") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "tol must be >= 0" in err
        assert not out.exists()

    def test_null_in_config_keeps_the_default(self, tmp_path, instance_dir):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lam": None, "max_sweeps": 50}))
        out = tmp_path / "out"
        assert run_cli("solve", "--instance-dir", str(instance_dir),
                       "--config", str(cfg_path), "--out-dir", str(out), "--quiet") == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config["lam"] == 0.001 and config["max_sweeps"] == 50

    def test_bad_config_value_in_a_process(self, tmp_path):
        # the argv=None path of main and the process's own exit status
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"max_sweeps": "x"}))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "lqsolve.cli", "solve", "--config", str(cfg_path),
             "--out-dir", str(tmp_path / "out"), "--quiet"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "max-sweeps" in proc.stderr

    def test_manifest_spec_fields_are_checked(self, tmp_path, instance_dir, capsys):
        manifest_path = instance_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        solve = ("solve", "--instance-dir", str(instance_dir),
                 "--out-dir", str(tmp_path / "run"), "--quiet")
        for spec in (dict(manifest["spec"], extra=1),
                     {k: v for k, v in manifest["spec"].items() if k != "seed"}):
            manifest_path.write_text(json.dumps(dict(manifest, spec=spec)))
            assert run_cli(*solve) == 2
            err = capsys.readouterr().err
            assert ("extra" if "extra" in spec else "seed") in err
            assert "Traceback" not in err

    def test_negative_lam(self, tmp_path, instance_dir, capsys):
        code = run_cli("solve", "--instance-dir", str(instance_dir),
                       "--lam", "-1.0", "--out-dir", str(tmp_path), "--quiet")
        assert code == 2

    def test_missing_instance_dir(self, tmp_path, capsys):
        code = run_cli("solve", "--instance-dir", str(tmp_path / "nope"),
                       "--out-dir", str(tmp_path), "--quiet")
        assert code == 3

    def test_corrupted_instance_file(self, tmp_path, instance_dir, capsys):
        solve = ("solve", "--instance-dir", str(instance_dir),
                 "--out-dir", str(tmp_path / "run"), "--quiet")
        a_csv = instance_dir / "A.csv"
        lines = a_csv.read_text().splitlines(keepends=True)
        first = lines[1].rstrip("\n")  # one digit of the first row; header still fits
        lines[1] = first[:-1] + str((int(first[-1]) + 1) % 10) + "\n"
        a_csv.write_text("".join(lines))
        assert run_cli(*solve) == 3
        assert "A.csv" in capsys.readouterr().err
        manifest_path = instance_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["sha256"]  # a manifest that records no hashes verifies nothing
        manifest_path.write_text(json.dumps(manifest))
        assert run_cli(*solve) == 3
        assert "sha256" in capsys.readouterr().err

    def test_certify_non_stationary(self, tmp_path, instance_dir, capsys):
        bad = tmp_path / "bad.csv"
        cli.write_vector(bad, np.full(40, 0.01))
        out = tmp_path / "cert"
        code = run_cli("certify", "--instance-dir", str(instance_dir),
                       "--solution", str(bad), "--lam", "0.001",
                       "--out-dir", str(out), "--quiet")
        assert code == 4
        payload = json.loads((out / "certificate.json").read_text())
        assert not payload["stationarity"]["is_stationary"]
        assert payload["certificate"] is None

    @pytest.mark.parametrize("text, says", [
        ("", ": the file is empty\n"),
        ("40,1\n", ": header says 40x1, but no data rows follow\n")],
        ids=["empty", "header-only"])
    def test_certify_solution_without_data(self, text, says, tmp_path, instance_dir,
                                           capsys):
        # one stderr line naming the file, and no numpy warning before it
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("certify", "--instance-dir", str(instance_dir),
                           "--solution", str(bad), "--lam", "0.001",
                           "--out-dir", str(tmp_path / "cert"), "--quiet")
        assert code == 2 and caught == []
        assert capsys.readouterr().err == f"error: {bad}{says}"


class TestCertify:
    def test_solver_output_certifies(self, tmp_path, instance_dir):
        run_dir = tmp_path / "run"
        run_cli("solve", "--instance-dir", str(instance_dir),
                "--lam", "0.001", "--out-dir", str(run_dir), "--quiet")
        out = tmp_path / "cert"
        code = run_cli("certify", "--instance-dir", str(instance_dir),
                       "--solution", str(run_dir / "solution.csv"),
                       "--lam", "0.001", "--out-dir", str(out), "--quiet")
        assert code == 0
        payload = json.loads((out / "certificate.json").read_text())
        assert payload["stationarity"]["is_stationary"]
        assert payload["certificate"]["theorem7_holds"]


    def test_jaita_solution_certifies_at_its_own_mu(self, tmp_path):
        # stationary at jaita's 0.99/||A||^2 but not at gaita's 0.95/L_max
        inst = tmp_path / "inst60"
        run_cli("gen", "--m", "60", "--n", "120", "--k", "5", "--seed", "0",
                "--out-dir", str(inst), "--quiet")
        run_dir = tmp_path / "runj"
        run_cli("solve", "--instance-dir", str(inst), "--algorithm", "jaita",
                "--lam", "0.05", "--out-dir", str(run_dir), "--quiet")
        summary = json.loads((run_dir / "summary.json").read_text())
        certify = ("certify", "--instance-dir", str(inst),
                   "--solution", str(run_dir / "solution.csv"), "--lam", "0.05",
                   "--quiet")
        assert run_cli(*certify, "--out-dir", str(tmp_path / "c1")) == 0
        payload = json.loads((tmp_path / "c1" / "certificate.json").read_text())
        assert payload["mu_source"] == "summary.json"
        assert payload["config"]["mu"] == summary["config"]["mu"]

        (run_dir / "summary.json").unlink()
        assert run_cli(*certify, "--out-dir", str(tmp_path / "c2")) == 4
        payload = json.loads((tmp_path / "c2" / "certificate.json").read_text())
        assert payload["mu_source"] == "default 0.95/L_max"

        mu = str(summary["config"]["mu"])
        assert run_cli(*certify, "--mu", mu, "--out-dir", str(tmp_path / "c3")) == 0
        payload = json.loads((tmp_path / "c3" / "certificate.json").read_text())
        assert payload["mu_source"] == "option"


    def test_solution_certifies_on_the_problem_it_solved(self, tmp_path,
                                                        instance_dir):
        # lam and q come from summary.json unless a flag or --config gives them
        run_dir = tmp_path / "run"
        run_cli("solve", "--instance-dir", str(instance_dir), "--q", "0.7",
                "--lam", "0.01", "--out-dir", str(run_dir), "--quiet")
        certify = ("certify", "--instance-dir", str(instance_dir),
                   "--solution", str(run_dir / "solution.csv"), "--quiet")
        assert run_cli(*certify, "--lam", "0.01",
                       "--out-dir", str(tmp_path / "c1")) == 0
        payload = json.loads((tmp_path / "c1" / "certificate.json").read_text())
        assert payload["config"]["q"] == 0.7 and payload["config"]["lam"] == 0.01
        assert (payload["q_source"], payload["lam_source"]) == ("summary.json", "option")

        assert run_cli(*certify, "--out-dir", str(tmp_path / "c2")) == 0
        payload = json.loads((tmp_path / "c2" / "certificate.json").read_text())
        assert payload["lam_source"] == "summary.json"

        (run_dir / "summary.json").unlink()
        assert run_cli(*certify, "--lam", "0.01",
                       "--out-dir", str(tmp_path / "c3")) == 4
        payload = json.loads((tmp_path / "c3" / "certificate.json").read_text())
        assert payload["config"]["q"] == 0.5 and payload["q_source"] == "default 0.5"


class TestProxEval:
    def test_prints_thresholds_and_tie(self, capsys):
        code = run_cli("prox-eval", "--q", "0.5", "--lambda-mu", "1.0",
                       "--z", "0", "1.5", "2")
        assert code == 0
        out = capsys.readouterr().out
        assert "tau=1.5" in out and "eta=1.0" in out
        assert "(x_prev!=0)" in out  # the tie at |z| == tau shows both branches


class TestCompareAndSweep:
    DESK = ("--m", "25", "--n", "50", "--k", "3", "--max-sweeps", "300")

    def test_compare_fig1(self, tmp_path):
        out = tmp_path / "fig1"
        code = run_cli("compare", "--preset", "fig1", *self.DESK,
                       "--out-dir", str(out), "--quiet")
        assert code == 0
        assert (out / "fig1_result.json").exists()
        header = (out / "fig1_traces.csv").read_text().splitlines()[0]
        assert header.startswith("sweep,")

    def test_compare_fig4_flags(self, tmp_path):
        out = tmp_path / "fig4"
        code = run_cli("compare", "--preset", "fig4", *self.DESK,
                       "--out-dir", str(out), "--quiet")
        assert code == 0
        lines = (out / "fig4_traces.csv").read_text().splitlines()
        assert lines[0] == "mu,algorithm,converged,diverged,sweeps"
        assert len(lines) == 1 + 14  # 7 step sizes x 2 algorithms

    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli("sweep", *self.DESK, "--out-dir", str(out), "--quiet")
        assert code == 0
        lines = (out / "mu_sweep_cells.csv").read_text().splitlines()
        assert lines[0] == "q,mu,sweeps,converged,final_rmse"
        assert len(lines) == 1 + 50  # 5 exponents x 10 step sizes
        assert (out / "mu_sweep_result.json").exists()

    def test_config_k_star_reaches_compare(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"k_star": 2}))
        out = tmp_path / "fig1"
        assert run_cli("compare", "--preset", "fig1", "--m", "25", "--n", "50",
                       "--max-sweeps", "50", "--config", str(cfg_path),
                       "--out-dir", str(out), "--quiet") == 0
        assert json.loads((out / "fig1_result.json").read_text())["config"]["k_star"] == 2

    def test_compare_determinism(self, tmp_path):
        outs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            run_cli("compare", "--preset", "fig1", *self.DESK,
                    "--out-dir", str(out), "--quiet")
            outs.append(out)
        for fname in ("fig1_result.json", "fig1_traces.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


@pytest.mark.parametrize("command", [("compare", "--preset", "fig1"), ("sweep",)])
@pytest.mark.parametrize("flag", [("--snr-db", "5"), ("--no-column-normalize",)])
def test_presets_reject_instance_flags_they_ignore(command, flag, tmp_path, capsys):
    code = run_cli(*command, *TestCompareAndSweep.DESK, *flag,
                   "--out-dir", str(tmp_path), "--quiet")
    assert code == 2
    assert not list(tmp_path.iterdir())


def test_every_flag_is_read():
    # each subcommand's option dests in full; each is read by its command or
    # echoed in its config (vars(args) less cli.NOT_ECHOED)
    dests = {
        "gen": {"config", "out_dir", "quiet", "seed", "m", "n", "k", "snr_db",
                "column_normalize"},
        "solve": {"config", "out_dir", "quiet", "seed", "m", "n", "k", "snr_db",
                  "column_normalize", "instance_dir", "algorithm", "lam", "q", "mu",
                  "max_sweeps", "stop", "tol", "record_every"},
        "compare": {"config", "out_dir", "quiet", "seed", "m", "n", "k_star", "lam",
                    "max_sweeps", "preset"},
        "sweep": {"config", "out_dir", "quiet", "seed", "m", "n", "k_star", "lam",
                  "max_sweeps"},
        "certify": {"config", "out_dir", "quiet", "solution", "instance_dir", "lam",
                    "q", "mu", "tol"},
        "prox-eval": {"q", "lambda_mu", "z"},
    }
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(dests)
    wrong = {name for name, sp in sub.choices.items()
             if {a.dest for a in sp._actions if a.option_strings and a.dest != "help"}
             != dests[name]}
    assert wrong == set()


def test_what_perfbench_reads_from_outside(tmp_path, instance_dir, monkeypatch):
    # perfbench records the sweep backend as solvers._sweep.__name__, and
    # counts solves by replacing gaita_run / jaita_run on solvers and
    # harness, so cli.cmd_solve and harness._solve must look them up there
    # each time they run
    for sweep in (solvers._sweep, solvers._sweep_python):
        monkeypatch.setattr(solvers, "_sweep", sweep)
        assert sweep.__name__ in ("_sweep_c", "_sweep_python")
        assert (sweep.__name__ == "_sweep_c") == (solvers.sweep_backend() == "c")
    calls = []
    for module in (solvers, harness):
        for name in ("gaita_run", "jaita_run"):
            def counted(*args, _run=getattr(module, name),
                        _key=f"{module.__name__}.{name}"):
                calls.append(_key)
                return _run(*args)
            monkeypatch.setattr(module, name, counted)
    assert run_cli("solve", "--instance-dir", str(instance_dir),
                   "--out-dir", str(tmp_path / "run"), "--quiet") == 0
    assert calls == ["lqsolve.solvers.gaita_run"]
    assert run_cli("compare", "--preset", "fig1", *TestCompareAndSweep.DESK,
                   "--out-dir", str(tmp_path / "fig1"), "--quiet") == 0
    assert calls[1:] == ["lqsolve.harness.gaita_run", "lqsolve.harness.jaita_run"] * 2
