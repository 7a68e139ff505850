"""End-to-end command behavior through run(): exit codes, file outputs,
manifest integrity, and byte-exact replay."""

import dataclasses
import hashlib
import json
import threading
import weakref

import pytest

from sparse_minimax import _kernels, cli, tails
from sparse_minimax.cli import PROOF_LEMMAS, _parse_grid_text, _produce_check_lemma, run
from sparse_minimax.config import lemma_config_from_mapping
from sparse_minimax.risk import worker_count
from sparse_minimax.tails import REGISTRY

RISK_CFG = """
n = 30
p = 12
k = 2
sigma = 1.0
eps = 0.1
estimator_id = oracle
amplitudes = 2.0, 4.0
reps = 3
master_seed = 11
"""

LEMMA_CFG = """
n = 200
p = 50
k = 2
sigma = 1.0
eps = 0.1
"""


@pytest.fixture
def risk_config(tmp_path):
    path = tmp_path / "risk.cfg"
    path.write_text(RISK_CFG)
    return str(path)


def _run_simulate(tmp_path, risk_config, name="out", extra=()):
    out = tmp_path / name
    out.mkdir()
    code = run(["simulate-risk", "--config", risk_config, "--out", str(out), *extra])
    return code, out


def test_simulate_risk_writes_run_directory(tmp_path, risk_config, capsys):
    code, out = _run_simulate(tmp_path, risk_config)
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"risk_oracle.csv", "risk_oracle.tsv", "summary_oracle.json", "manifest.json"}
    csv_lines = (out / "risk_oracle.csv").read_text().splitlines()
    assert csv_lines[0] == "amplitude,replicate,sq_error,estimator,seed"
    assert len(csv_lines) == 1 + 2 * 3  # amplitudes x reps
    assert "minimax_ratio" in capsys.readouterr().out


def test_manifest_hashes_match_files(tmp_path, risk_config):
    _, out = _run_simulate(tmp_path, risk_config)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == "sparse-minimax-manifest-v1"
    assert manifest["subcommand"] == "simulate-risk"
    assert manifest["master_seed"] == 11
    for name, meta in manifest["outputs"].items():
        data = (out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == meta["sha256"]
        assert len(data) == meta["bytes"]


def test_summary_echoes_resolved_config(tmp_path, risk_config):
    _, out = _run_simulate(tmp_path, risk_config)
    summary = json.loads((out / "summary_oracle.json").read_text())
    assert summary["config"]["master_seed"] == "11"
    assert summary["estimator"] == "oracle"
    assert summary["manifest"] == "manifest.json"
    assert len(summary["means"]) == 2


def test_seed_flag_overrides_config(tmp_path, risk_config):
    _, a = _run_simulate(tmp_path, risk_config, "a")
    _, b = _run_simulate(tmp_path, risk_config, "b", extra=["--seed", "99"])
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["master_seed"] == 11
    assert mb["master_seed"] == 99
    assert (a / "risk_oracle.csv").read_bytes() != (b / "risk_oracle.csv").read_bytes()


def test_thread_count_never_changes_bytes(tmp_path):
    cfg = tmp_path / "risk.cfg"
    cfg.write_text(RISK_CFG.replace("oracle", "lasso"))
    one = tmp_path / "one"
    eight = tmp_path / "eight"
    one.mkdir()
    eight.mkdir()
    assert run(["simulate-risk", "--config", str(cfg), "--out", str(one), "--threads", "1"]) == 0
    assert run(["simulate-risk", "--config", str(cfg), "--out", str(eight), "--threads", "8"]) == 0
    for name in ("risk_lasso.csv", "risk_lasso.tsv", "summary_lasso.json"):
        assert (one / name).read_bytes() == (eight / name).read_bytes()


def test_aggregated_bytes_match_a_check_per_amplitude(tmp_path, monkeypatch):
    # the sweep reuses each replicate's event report across amplitudes; a
    # fresh check at every amplitude must give the same files
    import sparse_minimax.risk as risk_mod

    cfg = tmp_path / "risk.cfg"
    cfg.write_text(RISK_CFG.replace("oracle", "aggregated"))
    runs = {}
    for threads in ("1", "2"):
        runs[threads] = tmp_path / f"reused{threads}"
        runs[threads].mkdir()
        assert run(["simulate-risk", "--config", str(cfg), "--out", str(runs[threads]), "--threads", threads]) == 0
    real = risk_mod.aggregated_estimate

    def fresh_check(*args, report=None, **kw):
        return real(*args, **kw)

    monkeypatch.setattr(risk_mod, "aggregated_estimate", fresh_check)
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    assert run(["simulate-risk", "--config", str(cfg), "--out", str(fresh), "--threads", "1"]) == 0
    for out in runs.values():
        for name in ("risk_aggregated.csv", "risk_aggregated.tsv", "summary_aggregated.json"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()


def test_replay_confirms_fresh_run(tmp_path, risk_config, capsys):
    _, out = _run_simulate(tmp_path, risk_config)
    assert run(["replay", str(out / "manifest.json")]) == 0
    assert "3/3 files identical" in capsys.readouterr().out


def test_replay_flags_edited_data(tmp_path, risk_config, capsys):
    _, out = _run_simulate(tmp_path, risk_config)
    path = out / "risk_oracle.csv"
    path.write_text(path.read_text().replace("oracle", "oracle2"))
    assert run(["replay", str(out / "manifest.json")]) == 2
    assert "mismatch: risk_oracle.csv" in capsys.readouterr().out


def test_replay_flags_missing_file(tmp_path, risk_config, capsys):
    _, out = _run_simulate(tmp_path, risk_config)
    (out / "risk_oracle.tsv").unlink()
    assert run(["replay", str(out / "manifest.json")]) == 1
    assert "missing output file" in capsys.readouterr().err


def test_replay_rejects_foreign_json(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text('{"format": "something-else"}')
    assert run(["replay", str(path)]) == 1
    assert run(["replay", str(tmp_path / "absent.json")]) == 1


def test_replay_warns_on_version_drift(tmp_path, risk_config, capsys):
    _, out = _run_simulate(tmp_path, risk_config)
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["version"] = "0.0.0"
    path.write_text(json.dumps(manifest))
    assert run(["replay", str(path)]) == 0
    assert "comparing anyway" in capsys.readouterr().err


def test_replay_accepts_an_old_backend_key(tmp_path, risk_config, capsys):
    # manifests written before the single numeric backend carry this key
    _, out = _run_simulate(tmp_path, risk_config)
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["backend"] = "numba"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(["replay", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_sweep_shares_seeds_across_estimators(tmp_path, risk_config, capsys):
    out = tmp_path / "sweep"
    out.mkdir()
    code = run(["sweep", "--config", risk_config, "--estimators", "oracle,mle", "--out", str(out)])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert {"risk_oracle.csv", "risk_mle.csv", "sweep_summary.json", "manifest.json"} <= names
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert set(summary["estimators"]) == {"oracle", "mle"}
    for est in ("oracle", "mle"):
        assert "minimax_ratio" in summary["estimators"][est]
    assert run(["replay", str(out / "manifest.json")]) == 0


def test_sweep_csvs_hold_plain_numbers(tmp_path, risk_config):
    # each squared error is written as the shortest repr of a Python float
    out = tmp_path / "sweep"
    out.mkdir()
    assert run(["sweep", "--config", risk_config, "--estimators", "oracle,lasso,slope", "--out", str(out)]) == 0
    for est in ("oracle", "lasso", "slope"):
        lines = (out / f"risk_{est}.csv").read_text().splitlines()
        errors = [line.split(",")[2] for line in lines[1:]]
        assert len(errors) == 2 * 3
        assert all(repr(float(field)) == field for field in errors), errors


GOOD_DESIGN = ["--n", "1500", "--p", "50", "--k", "2", "--eps", "2.0", "--restarts", "8"]


def test_diagnose_design_exit_codes(capsys):
    assert run(["diagnose-design", *GOOD_DESIGN]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True
    assert payload["theta_ok"] is True and payload["max_col_norm_ok"] is True
    # wide design: a null-space direction kills the lower eigenvalue bound
    assert run(["diagnose-design", "--n", "30", "--p", "40", "--k", "2", "--eps", "0.1", "--restarts", "4"]) == 2
    assert json.loads(capsys.readouterr().out)["holds"] is False


@pytest.mark.parametrize("eps", ["inf", "nan"])
def test_diagnose_design_rejects_nonfinite_eps_by_name(tmp_path, capsys, eps):
    out = tmp_path / "diag"
    out.mkdir()
    code = run(["diagnose-design", "--n", "40", "--p", "30", "--k", "2", "--eps", eps, "--out", str(out)])
    assert code == 1
    assert "eps must be positive and finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_diagnose_design_writes_replayable_run(tmp_path, capsys):
    out = tmp_path / "diag"
    out.mkdir()
    assert run(["diagnose-design", *GOOD_DESIGN, "--out", str(out)]) == 0
    assert run(["replay", str(out / "manifest.json")]) == 0


def test_check_lemma_registry_row(tmp_path, capsys):
    out = tmp_path / "lemma"
    out.mkdir()
    code = run(["check-lemma", "--lemma", "gauss_max", "--reps", "500", "--out", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    payload = json.loads((out / "lemma_gauss_max.json").read_text())
    assert payload["report"]["lemma_id"] == "gauss_max"
    assert run(["replay", str(out / "manifest.json")]) == 0


def test_check_lemma_grid_file(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("p = 50, u = 0.5\np = 200, u = 1.0\n")
    code = run(["check-lemma", "--lemma", "gauss_max", "--reps", "300", "--grid", str(grid)])
    assert code == 0
    text = capsys.readouterr().out
    assert "p=50" in text and "p=200" in text
    assert "2/2 grid points" in text


@pytest.mark.parametrize(
    "line, field",
    [
        ("p = 100", "u"),
        ("p = 100.5, u = 0.5", "p"),
        ("p = 100, u = nan", "u"),
        ("p = 100, u = 0.5, q = 2", "q"),
        ("p = 0, u = 0.5", "p"),
    ],
)
def test_check_lemma_rejects_bad_grid_points(tmp_path, capsys, monkeypatch, line, field):
    def no_draws(*args):
        raise AssertionError("a cell was simulated before the grid was checked")

    monkeypatch.setitem(REGISTRY, "gauss_max", dataclasses.replace(REGISTRY["gauss_max"], simulate=no_draws))
    grid = tmp_path / "grid.txt"
    grid.write_text(f"p = 50, u = 0.5\n{line}\n")
    assert run(["check-lemma", "--lemma", "gauss_max", "--reps", "300", "--grid", str(grid)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: gauss_max: ") and field in err


def test_check_lemma_proof_driver(tmp_path, capsys):
    cfg = tmp_path / "lemma.cfg"
    cfg.write_text(LEMMA_CFG)
    out = tmp_path / "gap"
    out.mkdir()
    code = run(
        ["check-lemma", "--lemma", "gap", "--config", str(cfg), "--reps", "25", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "lemma_gap.json").read_text())["report"]
    assert report["violations"] == 0
    assert report["containment_rate"] == 1.0
    assert run(["replay", str(out / "manifest.json")]) == 0


# 9 replicates of this size put 5 on the conditioning event, so every
# driver's on-event and off-event branches run
PROOF_SETTINGS = {"n": "260", "p": "20", "k": "2", "sigma": "1.0", "eps": "2.0", "u_samples": "8", "restarts": "2"}


@pytest.mark.parametrize("lemma", PROOF_LEMMAS)
def test_proof_driver_reports_do_not_depend_on_the_thread_count(monkeypatch, lemma):
    drawn_on = []
    real_gen_design = cli.gen_design

    def recording(n, p, spec):
        drawn_on.append(threading.get_ident())
        return real_gen_design(n, p, spec)

    monkeypatch.setattr(cli, "gen_design", recording)
    config = {"lemma": lemma, "reps": 9, "seed": 3, "settings": lemma_config_from_mapping(PROOF_SETTINGS)}
    files = {}
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("SPARSE_MINIMAX_THREADS", threads)
        drawn_on.clear()
        files[threads] = _produce_check_lemma(config)
        assert len(drawn_on) == 9
        main = threading.get_ident()
        assert set(drawn_on) == {main} if threads == "1" else main not in drawn_on
    assert files["2"] == files["1"] and files["3"] == files["1"]


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("lemma", PROOF_LEMMAS)
def test_proof_driver_workers_drop_each_design_before_drawing_the_next(monkeypatch, lemma, threads):
    # a replicate entering gen_design holds no design itself, so at most the
    # other workers' designs, one each, are alive
    designs = []
    most_alive = []
    lock = threading.Lock()
    real_gen_design = cli.gen_design

    def tracking(n, p, spec):
        with lock:
            most_alive.append(sum(ref() is not None for ref in designs))
        design = real_gen_design(n, p, spec)
        with lock:
            designs.append(weakref.ref(design.entries))
        return design

    monkeypatch.setattr(cli, "gen_design", tracking)
    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", str(threads))
    settings = lemma_config_from_mapping(PROOF_SETTINGS)
    cli._PROOF_DRIVERS[lemma](settings, 9, 3)
    assert len(designs) == 9
    assert max(most_alive) <= threads - 1


def test_check_lemma_proof_driver_needs_config(capsys):
    assert run(["check-lemma", "--lemma", "gap"]) == 1
    assert "needs --config" in capsys.readouterr().err


def test_check_lemma_unknown_name(capsys):
    assert run(["check-lemma", "--lemma", "borel_cantelli"]) == 1
    err = capsys.readouterr().err
    assert "unknown lemma" in err
    assert "gap" in err and "gauss_max" in err


def test_bad_experiment_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(RISK_CFG.replace("k = 2", "k = 12"))
    out = tmp_path / "out"
    out.mkdir()
    assert run(["simulate-risk", "--config", str(cfg), "--out", str(out)]) == 1
    assert "need 1 <= k < p" in capsys.readouterr().err
    assert list(out.iterdir()) == []  # validation precedes any output


def test_missing_out_directory(tmp_path, risk_config, capsys):
    assert run(["simulate-risk", "--config", risk_config, "--out", str(tmp_path / "nope")]) == 1
    assert "does not exist" in capsys.readouterr().err


def test_out_of_memory_is_an_error_line(monkeypatch, capsys):
    import sparse_minimax.cli as cli_mod

    def no_memory(n, p, seed):
        raise MemoryError(f"Unable to allocate {8 * n * p / 2**30:.1f} GiB for an array with shape ({p}, {n})")

    monkeypatch.setattr(cli_mod, "gen_design", no_memory)
    monkeypatch.setattr(cli_mod, "_memory_budget", lambda: None)  # unknown budget: admission lets it through
    argv = ["diagnose-design", "--n", "100000", "--p", "100000", "--k", "2", "--eps", "0.1"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 74.5 GiB for an array with shape (100000, 100000)\n"


@pytest.mark.parametrize("n, p, need", [(4000, 2000, 8 * 4000 * 2000 + 24 * 2000**2), (100, 300, 8 * 100 * 300 + 24 * 101**2)])
def test_diagnose_design_is_refused_before_the_draw_when_it_cannot_fit(monkeypatch, capsys, n, p, need):
    drawn = []
    monkeypatch.setattr(cli, "gen_design", lambda *args: drawn.append(args))
    monkeypatch.setattr(cli, "_memory_budget", lambda: need - 1)
    assert run(["diagnose-design", "--n", str(n), "--p", str(p), "--k", "2", "--eps", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: diagnose-design") and "Traceback" not in err
    assert f"n={n}, p={p}" in err and f"needs about {need} bytes" in err and f"the {need - 1} bytes" in err
    assert drawn == []


@pytest.mark.parametrize(
    "lemma, reps, need",
    [
        ("gauss_sv", 1000, 8 * 1000 + 8 * 63 * 100 * 20),  # one buffer of ceil(1000/16) rows of N*n
        ("chi2_lower", 10**11, 8 * 10**11 + 8 * 10**6),  # the buffer is capped at 10^6 doubles
    ],
)
def test_registry_row_is_refused_before_any_draw_when_it_cannot_fit(monkeypatch, capsys, lemma, reps, need):
    drawn = []
    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", "1")
    monkeypatch.setattr(tails.SeedSpec, "generator", lambda *args: drawn.append(args))
    monkeypatch.setattr(tails, "_memory_budget", lambda: need - 1)
    assert run(["check-lemma", "--lemma", lemma, "--reps", str(reps)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a tail-registry cell of ") and "Traceback" not in err
    assert f"reps={reps} " in err and f"needs about {need} bytes" in err and f"the {need - 1} bytes" in err
    assert drawn == []


def test_gap_replicate_makes_one_design_product_for_the_oracle_and_the_resolvent_set(monkeypatch):
    # per replicate: the Lasso's own products, then one X'z shared by the
    # oracle and the resolvent set; the l2 drivers fit no oracle
    calls = []
    real = _kernels.xt_dot

    def counting(x, v):
        calls.append(x.shape)
        return real(x, v)

    monkeypatch.setattr(_kernels, "xt_dot", counting)
    settings = lemma_config_from_mapping(PROOF_SETTINGS)
    per_replicate = []
    for rep in range(4):
        calls.clear()
        cli._gap_replicate(settings, 3, rep)
        per_replicate.append(len(calls))
    assert per_replicate == [3, 4, 3, 3]
    calls.clear()
    cli._PROOF_DRIVERS["l2-bound"](settings, 4, 3)
    assert len(calls) == 4


def test_unknown_flag_and_missing_subcommand(capsys):
    assert run(["simulate-risk", "--frobnicate"]) == 1
    assert run([]) == 1
    assert run(["--help"]) == 0


def test_grid_text_parser():
    points = _parse_grid_text("# comment\np = 10, u = 0.5\n\nd=3,tau=0.2\n")
    assert points == [{"p": 10, "u": 0.5}, {"d": 3, "tau": 0.2}]
    with pytest.raises(ValueError, match="line 1"):
        _parse_grid_text("p 10\n")
    with pytest.raises(ValueError):
        _parse_grid_text("p = ten\n")
    with pytest.raises(ValueError):
        _parse_grid_text("# nothing\n")


SETUP_PROBE = """
import sys
import sparse_minimax
from sparse_minimax.cli import run

config, lemma_config, out = sys.argv[1:]
assert run(["diagnose-design", "--n", "40", "--p", "30", "--k", "2", "--eps", "0.1", "--restarts", "2"]) in (0, 2)
assert run(["sweep", "--config", config, "--estimators", "oracle,lasso,slope", "--out", out]) == 0
assert run(["check-lemma", "--lemma", "order_conc", "--reps", "100"]) == 0
assert run(["check-lemma", "--lemma", "gap", "--config", lemma_config, "--reps", "2"]) == 0
assert run(["check-lemma", "--lemma", "resolvent_sv", "--reps", "100"]) == 0
assert run(["check-lemma", "--lemma", "sre_event", "--reps", "100"]) == 0
print("loaded:" + ",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _probe(code, *args):
    import os
    import pathlib
    import subprocess
    import sys

    import sparse_minimax

    src = str(pathlib.Path(sparse_minimax.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_paths_load_no_heavy_scipy_module(tmp_path):
    # importing scipy.special alone costs 0.2-0.35 s of every command's
    # start-up; the package's special functions are numpy and math only, so
    # no CLI path loads any part of scipy
    config = tmp_path / "tiny.cfg"
    config.write_text(RISK_CFG.replace("n = 30", "n = 60").replace("p = 12", "p = 120"))
    lemma_config = tmp_path / "lemma.cfg"
    lemma_config.write_text(LEMMA_CFG)
    out = tmp_path / "sweep"
    out.mkdir()
    assert _probe(SETUP_PROBE, str(config), str(lemma_config), str(out)) == "loaded:"


def test_package_import_loads_no_scipy_module():
    code = 'import sys, sparse_minimax; print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))'
    assert _probe(code) == "[]"


def test_console_script_is_installed():
    import subprocess

    proc = subprocess.run(["sparse-minimax", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate-risk" in proc.stdout


def test_pyproject_takes_its_version_from_the_package():
    import pathlib
    import warnings

    from setuptools.config.pyprojecttoml import read_configuration

    from sparse_minimax import __version__

    path = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert read_configuration(path, expand=False)["project"]["dynamic"] == ["version"]
        assert read_configuration(path)["project"]["version"] == __version__


def test_threads_env_wins_over_flag(tmp_path, risk_config, monkeypatch):
    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", "2")
    assert worker_count(8) == 2
    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", "0")
    with pytest.raises(Exception, match="SPARSE_MINIMAX_THREADS"):
        worker_count(None)
    code, _ = _run_simulate(tmp_path, risk_config, extra=("--threads", "2"))
    assert code == 1
    monkeypatch.delenv("SPARSE_MINIMAX_THREADS")
    assert worker_count(5) == 5


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_files_match_separate_runs(tmp_path, threads):
    estimators = ("oracle", "lasso", "slope")
    cfg = tmp_path / "risk.cfg"
    cfg.write_text(RISK_CFG)
    sweep = tmp_path / "sweep"
    sweep.mkdir()
    argv = ["sweep", "--config", str(cfg), "--estimators", ",".join(estimators), "--out", str(sweep)]
    assert run(argv + ["--threads", threads]) == 0
    for est in estimators:
        est_cfg = tmp_path / f"{est}.cfg"
        est_cfg.write_text(RISK_CFG.replace("estimator_id = oracle", f"estimator_id = {est}"))
        alone = tmp_path / est
        alone.mkdir()
        assert run(["simulate-risk", "--config", str(est_cfg), "--out", str(alone), "--threads", threads]) == 0
        for name in (f"risk_{est}.csv", f"risk_{est}.tsv", f"summary_{est}.json"):
            assert (sweep / name).read_bytes() == (alone / name).read_bytes()
