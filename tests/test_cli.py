import argparse
import ctypes
import json
import locale
import math
import os
import shutil
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    way of opening a file; it cannot be removed, so it stays in place and
    idle outside this fixture."""
    global _opened, _hooked
    if not _hooked:
        sys.addaudithook(_audit_open)
        _hooked = True
    _opened = []
    yield _opened
    _opened = None


GEN_SMALL = ("gen", "--m", "20", "--n", "40", "--k", "3", "--seed", "7")


_END_OF_ROW = "expected a finite number, then the end of the row, found"
# each body, with the array it reads to or its one-line message after the path
ARRAY_BODIES = [
    ("2,2\n1.5,-2e-07\n3.0,0.1\n", [[1.5, -2e-07], [3.0, 0.1]]),
    ("2,2\r\n1.0,2.0\r\n3.0,4.0\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("2,2\n1.0,2.0\n\n3.0,4.0\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\n 1.0,2.0\n", [[1.0, 2.0]]),
    ("1,2\n1.0 ,2.0\n", [[1.0, 2.0]]),
    ("1,1\n\t1.0\t\n", [[1.0]]),
    ("1,1\n1.0\n\n \r\n\t\n", [[1.0]]),
    ("2,1\n-0.0\n1e-400", [[-0.0], [0.0]]),
    ("1,1\n+1.5\n", [[1.5]]),
    ("1,1\n" + "1" * 63 + "\n", [[float("1" * 63)]]),
    ("", "the file is empty"),
    ("5\n1.0\n", "the first line is not 'rows,cols'"),
    # the header takes ASCII digits and the body's blanks, nothing int() adds
    (" 2 ,\t1 \r\n1.0\n2.0\n", [[1.0], [2.0]]),
    *((f"{bad},1\n1.0\n", "the first line is not 'rows,cols'")
      for bad in ("1_0", "+10", "-1")),
    ("2,2\n1.0,2.0\n", "row 2, field 1: expected a finite number, then a comma, found ''"),
    ("1,2\n1.0,abc\n", f"row 1, field 2: {_END_OF_ROW} 'abc'"),
    ("1,2\n1.0,2.0,3.0\n", f"row 1, field 2: {_END_OF_ROW} '2.0,3.0'"),
    ("1,2\n1.0,\n", f"row 1, field 2: {_END_OF_ROW} ''"),
    *((f"1,1\n{bad}\n", f"row 1, field 1: {_END_OF_ROW} {bad[:40]!r}")
      for bad in ("0x1p3", "inf", "nan", "1e999", "1_0", "1" * 64)),
    ("2,1\n1\n2\n3\n", "row 3, field 1: expected the end of the data, found '3'"),
]


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

    @pytest.mark.parametrize("text,want", ARRAY_BODIES, ids=[t for t, _ in ARRAY_BODIES])
    def test_body_reads_as_expected(self, text, want, tmp_path, instance_dir, capsys):
        path = tmp_path / "a.csv"
        path.write_bytes(text.encode())
        if isinstance(want, list):
            assert cli.read_array(path).tobytes() == np.array(want).tobytes()
            return
        with pytest.raises(LqsolveError) as err:
            cli.read_array(path)
        assert str(err.value) == f"{path}: {want}"
        assert run_cli("certify", "--instance-dir", str(instance_dir), "--solution",
                       str(path), "--out-dir", str(tmp_path / "out"), "--quiet") == 2
        assert capsys.readouterr().err == f"error: {path}: {want}\n"


@st.composite
def _array_files(draw):
    """(rows, cols, body): lines of fields that are reprs of floats or runs
    of the characters an array file holds, or of those and a few letters,
    split mostly by commas, under a header that may miscount them."""
    field = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      st.text("0123456789+-.eE", min_size=1, max_size=8),
                      st.text("0123456789+-.eE,\n\r \tainfx", max_size=8))
    pad, sep = st.sampled_from(["", "", " ", "\t"]), st.sampled_from([",", ",", " "])
    lines = draw(st.lists(st.lists(field, min_size=1, max_size=3), min_size=1, max_size=4))
    body = ""
    for line in lines:
        body += "".join((draw(sep) if k else "") + draw(pad) + f + draw(pad)
                        for k, f in enumerate(line))
        body += draw(st.sampled_from(["\n", "\r\n", "\n\n", "\n \t\n", ""]))
    rows, cols = (draw(st.sampled_from([max(1, n - 1), n, n + 1]))
                  for n in (len(lines), len(lines[0])))
    return rows, cols, body


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_array_files())
def test_read_array_reads_floats_or_names_the_path(case, tmp_path):
    # read_array returns each field as float() reads it, or fails with one
    # line that starts with the path; the body need not end in a newline
    rows, cols, body = case
    path = tmp_path / "a.csv"
    path.write_bytes(f"{rows},{cols}\n{body}".encode())
    try:
        a = cli.read_array(path)
    except LqsolveError as exc:
        assert str(exc).startswith(f"{path}: ") and "\n" not in str(exc)
        return
    fields = [f.strip(" \t\r") for line in body.split("\n") if line.strip(" \t\r")
              for f in line.split(",")]
    want = np.array([float(f) for f in fields])
    assert np.isfinite(want).all() and a.shape == (rows, cols)
    assert a.tobytes() == want.tobytes()


def _lq_parse_column(tokens):
    """The tokens parsed by the kernel as one column; it must take them all."""
    body = ("\n".join(tokens) + "\n").encode()
    out = np.empty(len(tokens))
    pos = ctypes.c_int64(0)
    assert _csweep.lq_parse(body, len(body), pos, len(tokens), 1, out.ctypes.data) == -1
    return out


def _midpoint_decimals(rng, count):
    """Decimals of 17 to 19 significant digits next to the midpoint of two
    adjacent doubles, in e and in f notation."""
    tokens = []
    with localcontext() as ctx:
        ctx.prec = 60
        for v in (rng.standard_normal(count) * 10.0 ** rng.uniform(-8, 8, count)).tolist():
            mid = (Decimal(v) + Decimal(float(np.nextafter(v, np.inf)))) / 2
            for digits in (17, 18, 19):
                e = f"{mid:.{digits - 1}e}"
                tokens += [e, format(Decimal(e), "f")]
    return tokens


def test_lq_parse_matches_float_bit_for_bit():
    rng = np.random.default_rng(3)
    patterns = rng.integers(0, 2**64, 60_000, dtype=np.uint64, endpoint=False)
    subnormals = rng.integers(1, 2**52, 2_000, dtype=np.uint64)
    values = np.concatenate([patterns.view(np.float64), subnormals.view(np.float64),
                             [0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                              1.7976931348623157e308]])
    values = values[np.isfinite(values)]
    scaled = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-30, 30, 20_000)
    tokens = ([repr(v) for v in values.tolist()]
              + ["%.17g" % v for v in scaled.tolist()]
              + ["%.17e" % v for v in (-scaled).tolist()]
              + _midpoint_decimals(rng, 5_000))
    want = np.array([float(t) for t in tokens])
    got = _lq_parse_column(tokens)
    wrong = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert [tokens[i] for i in wrong[:5]] == []


def test_read_array_ignores_a_decimal_comma_locale(tmp_path, rng, monkeypatch):
    # strtod reads LC_NUMERIC's decimal point; under de_DE, whose point is
    # ",", a file must read to the same bits.  glibc's setlocale looks for
    # locales in LOCPATH at each call, so de_DE is built there.
    localedef = shutil.which("localedef")
    if localedef is None or not Path("/usr/share/i18n/locales/de_DE").exists():
        pytest.skip("localedef or the de_DE locale source is missing")
    subprocess.run([localedef, "-i", "de_DE", "-f", "UTF-8",
                    str(tmp_path / "de_DE.UTF-8")], check=True, timeout=60)
    monkeypatch.setenv("LOCPATH", str(tmp_path))
    path, relaxed = tmp_path / "a.csv", tmp_path / "b.csv"
    a = rng.standard_normal((6, 4)) * 1e-30
    cli.write_array(path, a)
    relaxed.write_bytes(b"2,2\r\n\r\n 1.5 ,\t-2.25\r\n\r\n0.125,3\r\n")
    saved = locale.setlocale(locale.LC_NUMERIC)
    try:
        locale.setlocale(locale.LC_NUMERIC, "de_DE.UTF-8")
        assert locale.str(1.5) == "1,5"
        got, got_relaxed = cli.read_array(path), cli.read_array(relaxed)
    finally:
        locale.setlocale(locale.LC_NUMERIC, saved)
    assert got.tobytes() == a.tobytes()
    assert got_relaxed.tolist() == [[1.5, -2.25], [0.125, 3.0]]


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

    def test_jaita_overflow_is_flagged_without_a_warning(self, tmp_path, capsys):
        # the run loop is silent, and so is the summary's final_rmse of inf
        inst = tmp_path / "inst20"
        run_cli(*GEN_SMALL, "--out-dir", str(inst), "--quiet")
        out = tmp_path / "runo"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("solve", "--instance-dir", str(inst), "--algorithm",
                           "jaita", "--mu", "1e300", "--out-dir", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flags"]["diverged"]
        assert summary["final_rmse"] == math.inf
        printed = capsys.readouterr()
        assert printed.err == "" and len(printed.out.splitlines()) == 1

    @pytest.mark.parametrize("mu", ["50", "1e10", "1e300"])
    def test_gaita_overflow_is_flagged(self, mu, tmp_path, instance_dir, capsys):
        # the first sweep diverges; at 1e10 and 1e300 it overflows, leaving
        # an infinity in x, which has no stationarity and which certify
        # refuses to read
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("solve", "--instance-dir", str(instance_dir),
                           "--mu", mu, "--out-dir", str(out))
        printed = capsys.readouterr()
        assert code == 0 and printed.err == ""
        assert printed.out == f"gaita diverged after 1 sweeps; outputs in {out}\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flags"]["diverged"] and summary["flags"]["sweeps"] == 1
        header, rows = read_trace_csv(out / "trace.csv")
        assert summary["final_rmse"] == rows[-1][header.index("rmse")]
        overflowed = "inf" in (out / "solution.csv").read_text()
        assert overflowed == (mu != "50")
        assert (summary["stationarity"] is None) == overflowed
        if overflowed:
            assert summary["final_objective"] == summary["final_rmse"] == math.inf
            assert run_cli("certify", "--instance-dir", str(instance_dir),
                           "--solution", str(out / "solution.csv"),
                           "--out-dir", str(tmp_path / "cert"), "--quiet") == 2
            assert "solution.csv: row " in capsys.readouterr().err

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
        # a spec that does not match its arrays: first with the spec_hash
        # gen wrote, then with the edited spec's own
        spec = dict(manifest["spec"], m=999, seed=3)
        for spec_hash in (manifest["spec_hash"], cli._spec_hash(spec)):
            manifest_path.write_text(json.dumps(dict(manifest, spec=spec,
                                                     spec_hash=spec_hash)))
            assert run_cli(*solve) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith(f"error: {manifest_path}: ")
            assert ("spec_hash" if spec_hash == manifest["spec_hash"] else "m=999") in err

    @pytest.mark.parametrize("probe", ["malformed-config", "manifest-without-files",
                                       "manifest-spec-m-not-a-number", "summary-a-list",
                                       "summary-without-config"])
    def test_json_inputs_name_their_file(self, probe, tmp_path, instance_dir, capsys):
        # each JSON file the CLI reads, spoilt: exit 2 and one line naming it
        manifest_path = instance_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        run_dir = tmp_path / "run"
        command = ("solve", "--instance-dir", str(instance_dir),
                   "--out-dir", str(run_dir), "--quiet")
        if probe == "malformed-config":
            bad = tmp_path / "cfg.json"
            bad.write_text('{"lam":\n')
            command += ("--config", str(bad))
        elif probe.startswith("manifest"):
            bad = manifest_path
            if probe == "manifest-without-files":
                del manifest["files"]
            else:
                manifest["spec"]["m"] = "x"
            bad.write_text(json.dumps(manifest))
        else:
            assert run_cli(*command, "--max-sweeps", "5") == 0
            bad = run_dir / "summary.json"
            bad.write_text("[1]" if probe == "summary-a-list" else "{}")
            command = ("certify", "--instance-dir", str(instance_dir), "--solution",
                       str(run_dir / "solution.csv"), "--out-dir", str(tmp_path / "cert"),
                       "--quiet")
        assert run_cli(*command) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {bad}: ")

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

    def test_reads_negative_numbers_in_any_notation(self, capsys):
        code = run_cli("prox-eval", "--q", "0.5", "--lambda-mu", "1",
                       "--z", "0.5", "-1e3", "-2.5E-1", "-1", "-.5")
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == [
            "0.5", "-1000.0", "-0.25", "-1.0", "-0.5"]

    def test_an_infinite_z_has_an_infinite_prox(self, capsys):
        # -inf is read as a value; closed form and Newton alike keep it
        for q in ("0.5", "0.9"):
            code = run_cli("prox-eval", "--q", q, "--lambda-mu", "1",
                           "--z", "0.5", "-inf")
            printed = capsys.readouterr()
            assert code == 0 and printed.err == ""
            assert printed.out.splitlines()[2:] == ["0.5,0.0", "-inf,-inf"]

    def test_newton_where_one_ulp_exceeds_tol(self, capsys):
        code = run_cli("prox-eval", "--q", "0.9", "--lambda-mu", "1000",
                       "--z", "15584.820641239146")
        printed = capsys.readouterr()
        assert code == 0 and printed.err == ""
        assert printed.out.splitlines()[2:] == ["15584.820641239146,15241.309932890124"]

    @pytest.mark.parametrize("z", ["nan", "-NaN"])
    def test_a_nan_z_is_rejected(self, capsys, z):
        # a NaN has no prox: the parser refuses it, in one line naming it
        code = run_cli("prox-eval", "--q", "0.5", "--lambda-mu", "1",
                       "--z", "0.5", z)
        printed = capsys.readouterr()
        assert code == 2
        assert printed.out == ""
        assert printed.err == ("error: lqsolve prox-eval: argument --z: "
                               f"invalid value '{z}': z is NaN\n")


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


def test_written_files_end_lines_with_a_bare_newline(tmp_path, instance_dir):
    small = ("--m", "25", "--n", "50", "--k", "3", "--max-sweeps", "50")
    run = tmp_path / "solve"
    assert run_cli("solve", "--instance-dir", str(instance_dir),
                   "--out-dir", str(run), "--quiet") == 0
    assert run_cli("certify", "--instance-dir", str(instance_dir),
                   "--solution", str(run / "solution.csv"),
                   "--out-dir", str(tmp_path / "certify"), "--quiet") == 0
    for preset in ("fig1", "fig3", "fig4"):
        assert run_cli("compare", "--preset", preset, *small,
                       "--out-dir", str(tmp_path / preset), "--quiet") == 0
    assert run_cli("sweep", *small, "--out-dir", str(tmp_path / "sweep"),
                   "--quiet") == 0
    files = [f for f in tmp_path.rglob("*") if f.is_file()]
    assert {"A.csv", "trace.csv", "solution.csv", "certificate.json",
            "fig3_traces.csv", "mu_sweep_cells.csv"} <= {f.name for f in files}
    assert [f.name for f in files if b"\r" in f.read_bytes()] == []


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
    # each time they run; gaita_run looks up solvers._sweep the same way
    sweep = solvers._sweep
    assert sweep.__name__ == "_sweep"
    bound = []
    monkeypatch.setattr(solvers, "_sweep",
                        lambda *args: bound.append(args) or sweep(*args))
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
    assert calls == ["lqsolve.solvers.gaita_run"] and len(bound) == 1
    assert run_cli("compare", "--preset", "fig1", *TestCompareAndSweep.DESK,
                   "--out-dir", str(tmp_path / "fig1"), "--quiet") == 0
    assert calls[1:] == ["lqsolve.harness.gaita_run", "lqsolve.harness.jaita_run"] * 2
