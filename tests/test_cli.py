"""End-to-end command behavior through run(): exit codes, file outputs,
manifest integrity, and byte-exact replay."""

import ast
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import pathlib
import threading

import numpy as np
import pytest
from conftest import shared_pass

from sparse_minimax import _kernels, cli, risk, rng
from sparse_minimax import config as config_mod
from sparse_minimax.cli import PROOF_LEMMAS, _produce_check_lemma, run
from sparse_minimax.config import lemma_config_from_mapping, parse_grid_text
from sparse_minimax.design import gen_design
from sparse_minimax.estimators import LassoConfig, lasso_fit
from sparse_minimax.events import GapCheck
from sparse_minimax.risk import ExperimentConfig
from sparse_minimax.rng import SeedSpec, worker_count
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


# the aggregated estimator's event holds on every replicate of the first and
# fails on every replicate of the second
_ON_EVENT_CFG = "n = 1000\np = 40\nk = 2\nsigma = 1.0\neps = 2.0\namplitudes = 4.0, 8.0, 16.0\nreps = 3\nmaster_seed = 11\n"
_OFF_EVENT_CFG = "n = 30\np = 12\nk = 2\nsigma = 1.0\neps = 0.1\namplitudes = 2.0, 4.0\nreps = 3\nmaster_seed = 11\n"


@pytest.mark.parametrize("text, branch, amps", [(_ON_EVENT_CFG, "lasso", 3), (_OFF_EVENT_CFG, "mle", 2)])
def test_the_aggregated_column_is_the_sweeps_own_lasso_or_best_subset_column(tmp_path, monkeypatch, text, branch, amps):
    import sparse_minimax.diagnostics as diag_mod

    calls = dict.fromkeys(("lasso_fit", "mle_best_subset", "synthesize", "event_a_check"), 0)

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("lasso_fit", "mle_best_subset", "synthesize"):
        counting(risk, name)
    counting(diag_mod, "event_a_check")
    cfg = tmp_path / "risk.cfg"
    cfg.write_text(text)
    outs = {}
    for threads in ("1", "2"):
        outs[threads] = out = tmp_path / threads
        out.mkdir()
        argv = ["sweep", "--config", str(cfg), "--estimators", "lasso,mle,aggregated", "--out", str(out)]
        assert run([*argv, "--threads", threads]) == 0
    # two runs of 3 replicates: one fit of each estimator per amplitude, and
    # one noise draw and one event check per replicate
    assert calls == {"lasso_fit": 2 * 3 * amps, "mle_best_subset": 2 * 3 * amps, "synthesize": 2 * 3, "event_a_check": 2 * 3}
    for out in outs.values():
        csv = (out / "risk_aggregated.csv").read_text().replace(",aggregated,", f",{branch},")
        assert csv == (out / f"risk_{branch}.csv").read_text()
        assert (out / "risk_aggregated.tsv").read_bytes() == (out / f"risk_{branch}.tsv").read_bytes()
        for name in ("risk_aggregated.csv", "risk_aggregated.tsv", "summary_aggregated.json", "sweep_summary.json"):
            assert (out / name).read_bytes() == (outs["1"] / name).read_bytes()


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


def test_replay_looks_for_the_output_files_before_any_draw(tmp_path, risk_config, monkeypatch, capsys):
    # before, replay reran the whole run and only then found a file missing
    _, out = _run_simulate(tmp_path, risk_config)
    (out / "risk_oracle.tsv").unlink()
    drawn = []
    monkeypatch.setattr(risk, "gen_design", lambda *args: drawn.append(args))
    monkeypatch.setattr(rng.SeedSpec, "generator", lambda *args: drawn.append(args))
    assert run(["replay", str(out / "manifest.json")]) == 1
    assert capsys.readouterr().err == f"missing output file: {out / 'risk_oracle.tsv'}\n"
    assert drawn == []


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
def test_proof_driver_reports_do_not_depend_on_the_thread_count(monkeypatch, design_tracker, lemma):
    # the thread count only splits each design's draw, which gets the
    # resolved count; risk.map_replicates draws every driver's designs
    calls = design_tracker(risk)
    config = {"lemma": lemma, "reps": 9, "seed": 3, "settings": lemma_config_from_mapping(PROOF_SETTINGS)}
    files = {}
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("SPARSE_MINIMAX_THREADS", threads)
        calls.clear()
        files[threads] = _produce_check_lemma(config)
        assert [count for _, count, _ in calls] == [int(threads)] * 9
    assert files["2"] == files["1"] and files["3"] == files["1"]


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("lemma", PROOF_LEMMAS)
def test_proof_driver_workers_drop_each_design_before_drawing_the_next(monkeypatch, design_tracker, lemma, threads):
    # replicates run one at a time on the calling thread, so no design is
    # alive when the next one is drawn, at any thread count
    calls = design_tracker(risk)
    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", str(threads))
    settings = lemma_config_from_mapping(PROOF_SETTINGS)
    cli._proof_report(lemma, settings, 9, 3)
    assert calls == [(0, threads, threading.get_ident())] * 9


@pytest.mark.parametrize("threads", ["1", "2"])
def test_one_pass_feeds_the_sweep_and_the_gap_replicate_as_each_would_alone(monkeypatch, design_tracker, threads):
    # the sweep consumer takes replicates 0-3 and the gap replicate 0-5 of
    # one pass; each design is drawn once and dropped before the next
    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", threads)
    cfg = ExperimentConfig(
        n=60, p=120, k=2, sigma=1.0, eps=0.1, estimator_id="oracle", amplitudes=(1.0, 4.0), reps=4, master_seed=9
    )
    ids = ("oracle", "lasso", "slope")
    settings = lemma_config_from_mapping({"n": "60", "p": "120", "k": "2", "sigma": "1.0", "eps": "0.1"})
    calls = design_tracker(risk)
    results = shared_pass(cfg.n, cfg.p, cfg.master_seed, {
        "sweep": (cfg.reps, risk.risk_replicate(cfg, ids)),
        "gap": (6, functools.partial(cli._gap_replicate, settings)),
    })
    assert calls == [(0, int(threads), threading.get_ident())] * 6
    shared = risk.risk_reports(cfg, ids, results["sweep"])
    alone = risk.empirical_risks(cfg, ids)
    for est in ids:
        assert shared[est].to_json() == alone[est].to_json()
        assert shared[est].errors.tobytes() == alone[est].errors.tobytes()
    shared_gap = cli._json_bytes(cli._gap_report(settings, results["gap"]))
    assert shared_gap == cli._json_bytes(cli._proof_report("gap", settings, 6, cfg.master_seed))


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


@pytest.mark.parametrize(
    "argv",
    [
        ["check-lemma", "--lemma", "order_conc", "--reps", "10000"],
        ["check-lemma", "--lemma", "gap", "--config", "{cfg}", "--reps", "2"],
        ["diagnose-design", "--n", "40", "--p", "30", "--k", "2", "--eps", "0.1"],
    ],
)
def test_a_missing_out_directory_is_refused_before_the_work(tmp_path, monkeypatch, capsys, argv):
    def no_work(config):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(cli, "_produce_check_lemma", no_work)
    monkeypatch.setattr(cli, "_produce_diagnose", no_work)
    cfg = tmp_path / "lemma.cfg"
    cfg.write_text(LEMMA_CFG)
    argv = [a.replace("{cfg}", str(cfg)) for a in argv] + ["--out", str(tmp_path / "nope")]
    assert run(argv) == 1
    assert "output directory does not exist" in capsys.readouterr().err


_DIAGNOSE = ["diagnose-design", "--n", "40", "--p", "30", "--k", "2", "--eps", "0.1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check-lemma", "--lemma", lemma, "--reps", reps], f"reps must be at least 1, got {reps}")
        for lemma in ("gap", "resolvent", "moments")
        for reps in ("0", "-3")
    ]
    + [
        ([*_DIAGNOSE, "--k", "0"], "need 1 <= k < p, got k=0, p=30"),
        ([*_DIAGNOSE, "--k", "30"], "need 1 <= k < p, got k=30, p=30"),
        ([*_DIAGNOSE, "--eps", "nan"], "eps must be positive and finite, got nan"),
        ([*_DIAGNOSE, "--eps", "-1"], "eps must be positive and finite, got -1.0"),
        ([*_DIAGNOSE, "--restarts", "0"], "restarts must be at least 1, got 0"),
    ],
)
def test_bad_arguments_are_refused_before_any_draw(tmp_path, monkeypatch, capsys, argv, message):
    drawn = []
    for module in (cli, risk):
        monkeypatch.setattr(module, "gen_design", lambda *args: drawn.append(args))
    cfg = tmp_path / "lemma.cfg"
    cfg.write_text(LEMMA_CFG)
    if argv[0] == "check-lemma":
        argv = argv + ["--config", str(cfg)]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert drawn == []


@pytest.mark.parametrize(
    "subcommand, config, message",
    [
        ("check-lemma", {"lemma": "gap", "reps": 0, "seed": 0}, "reps must be at least 1, got 0"),
        ("diagnose-design", {"n": 40, "p": 30, "k": 0, "eps": 0.1, "restarts": 4, "seed": 0}, "need 1 <= k < p"),
        ("check-lemma", {"lemma": "gap", "reps": 3, "seed": 0, "settings": {"n": 0}}, "n must be at least 1, got 0"),
        ("check-lemma", {"lemma": "gap", "reps": 3, "seed": 0, "settings": {"eps": -0.5}}, "eps must be nonnegative, got -0.5"),
    ],
)
def test_replay_refuses_bad_arguments_before_any_draw(tmp_path, monkeypatch, capsys, subcommand, config, message):
    drawn = []
    for module in (cli, risk):
        monkeypatch.setattr(module, "gen_design", lambda *args: drawn.append(args))
    monkeypatch.setattr(cli, "_admit", lambda *args: drawn.append(args))
    if subcommand == "check-lemma":
        settings = lemma_config_from_mapping({"n": "40", "p": "20", "k": "2", "sigma": "1.0", "eps": "0.1"})
        config = dict(config, settings={**settings, **config.get("settings", {})})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"format": cli._MANIFEST_MAGIC, "version": cli.__version__, "subcommand": subcommand, "config": config, "outputs": {}}
    ))
    assert run(["replay", str(manifest)]) == 1
    assert message in capsys.readouterr().err
    assert drawn == []


def test_a_report_value_json_cannot_hold_is_refused_by_name(tmp_path, monkeypatch, capsys):
    # a gap check with an infinite right-hand side gives an infinite
    # min_margin; the refusal comes after the draws, but names the field
    # and writes nothing
    monkeypatch.setattr(cli, "oracle_lasso_gap_check", lambda *args: GapCheck(0.0, math.inf, True, False))
    cfg = tmp_path / "lemma.cfg"
    cfg.write_text(LEMMA_CFG)
    out = tmp_path / "out"
    out.mkdir()
    assert run(["check-lemma", "--lemma", "gap", "--config", str(cfg), "--reps", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: report.min_margin must be finite to be written as JSON, got inf\n"
    assert list(out.iterdir()) == []
    with pytest.raises(ValueError, match=r"^a\[1\]\.b must be finite to be written as JSON, got nan$"):
        cli._json_bytes({"a": [1.0, {"c": 2.0, "b": math.nan}]})


_EXPERIMENT = {"n": "30", "p": "12", "k": "2", "sigma": "1.0", "eps": "0.1", "amplitudes": "2.0", "reps": "2", "master_seed": "1"}
_LEMMA_SETTINGS = lemma_config_from_mapping({"n": "40", "p": "20", "k": "2", "sigma": "1.0", "eps": "0.1"})


@pytest.mark.parametrize(
    "manifest, message",
    [
        ({"subcommand": "sweep", "config": {"experiment": _EXPERIMENT, "estimators": []}},
         "estimators must name at least one estimator"),
        ({"subcommand": "sweep"}, "manifest lacks config"),
        ({"subcommand": "simulate-risk", "config": [_EXPERIMENT]}, "config must be an object, got list"),
        ({"subcommand": "check-lemma", "config": {"lemma": "gap", "reps": 3, "seed": 0}}, "config lacks settings"),
        ({"subcommand": "check-lemma", "config": {"lemma": "gap", "reps": 3, "seed": 0,
                                                  "settings": {k: v for k, v in _LEMMA_SETTINGS.items() if k != "sigma"}}},
         "config settings lacks sigma"),
        ({"subcommand": "diagnose-design", "config": {"n": 40, "p": 30, "k": 2, "restarts": 4, "seed": 0}},
         "config lacks eps"),
        # before, each of these ended in a TypeError traceback
        ({"subcommand": "check-lemma", "config": {"lemma": "gap", "reps": "1", "seed": 0, "settings": _LEMMA_SETTINGS}},
         "config reps must be an integer, got '1'"),
        ({"subcommand": "check-lemma", "config": {"lemma": "gap", "reps": True, "seed": 0, "settings": _LEMMA_SETTINGS}},
         "config reps must be an integer, got True"),
        ({"subcommand": "check-lemma", "config": {"lemma": "gap", "reps": 3, "seed": 0,
                                                  "settings": dict(_LEMMA_SETTINGS, n=40.0)}},
         "config settings n must be an integer, got 40.0"),
        ({"subcommand": "check-lemma", "config": {"lemma": "gauss_max", "reps": 300, "seed": "0", "grid": None}},
         "config seed must be an integer, got '0'"),
        ({"subcommand": "diagnose-design", "config": {"n": 40, "p": 30, "k": 2, "eps": "0.1", "restarts": 4, "seed": 0}},
         "config eps must be a number, got '0.1'"),
        # before, these two drew a design and then failed: "math domain error", "sigma must be nonnegative"
        ({"subcommand": "check-lemma", "config": {"lemma": "gap", "reps": 3, "seed": 0,
                                                  "settings": dict(_LEMMA_SETTINGS, k=25)}},
         "need 1 <= k < p, got k=25, p=20"),
        ({"subcommand": "check-lemma", "config": {"lemma": "gap", "reps": 3, "seed": 0,
                                                  "settings": dict(_LEMMA_SETTINGS, sigma=-1.0)}},
         "sigma must be positive for lemma checks, got -1.0"),
        # before, each of these ended in a TypeError traceback
        ({"subcommand": "simulate-risk", "config": {"experiment": 5}}, "config experiment must be an object, got 5"),
        ({"subcommand": "sweep", "config": {"experiment": _EXPERIMENT, "estimators": 5}},
         "config estimators must be a list of strings, got 5"),
        ({"subcommand": "sweep", "config": {"experiment": _EXPERIMENT, "estimators": ["oracle"]}, "outputs": 5},
         "manifest outputs must be an object, got 5"),
        ({"subcommand": "simulate-risk", "config": {"experiment": dict(_EXPERIMENT, n=[1])}},
         "config experiment n must be a string, got [1]"),
        ({"subcommand": "check-lemma", "config": {"lemma": "gauss_max", "reps": 300, "seed": 0, "grid": 5}},
         "config grid must be null or a list of objects, got 5"),
        ({"subcommand": "check-lemma", "config": {"lemma": ["gap"], "reps": 3, "seed": 0, "settings": _LEMMA_SETTINGS}},
         "config lemma must be a string, got ['gap']"),
        ({"subcommand": ["x"], "config": {}}, "manifest subcommand must be a string, got ['x']"),
    ]
    + [
        # before, replay opened these outside the run directory
        ({"subcommand": "sweep", "config": {"experiment": _EXPERIMENT, "estimators": ["oracle"]},
          "outputs": {name: {"sha256": "0" * 64, "bytes": 1}}},
         f"manifest outputs name {name!r} is not a plain file name")
        for name in ("../x", "../../etc/hostname", "/etc/hostname", "sub/risk_oracle.csv", "..", ".", "", "a\\b")
    ],
)
def test_replay_refuses_a_malformed_manifest_by_name_before_any_draw(tmp_path, monkeypatch, capsys, manifest, message):
    drawn = []
    for module in (cli, risk):
        monkeypatch.setattr(module, "gen_design", lambda *args: drawn.append(args))
    monkeypatch.setattr(rng.SeedSpec, "generator", lambda *args: drawn.append(args))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"format": cli._MANIFEST_MAGIC, "version": cli.__version__, "outputs": {}, **manifest}))
    assert run(["replay", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert drawn == []


@pytest.mark.parametrize(
    "argv, option",
    [
        (["check-lemma", "--lemma", "gap", "--config", "{cfg}", "--grid", "{grid}"], "--grid"),
        (["check-lemma", "--lemma", "gauss_max", "--config", "{cfg}"], "--config"),
        (["check-lemma", "--lemma", "gauss_max", "--config", "{cfg}", "--grid", "{grid}"], "--config"),
    ],
)
def test_check_lemma_refuses_an_option_that_does_not_apply(tmp_path, monkeypatch, capsys, argv, option):
    # before, each ran, ignored the option and exited 0
    drawn = []
    for module in (cli, risk):
        monkeypatch.setattr(module, "gen_design", lambda *args: drawn.append(args))
    monkeypatch.setattr(rng.SeedSpec, "generator", lambda *args: drawn.append(args))
    cfg = tmp_path / "lemma.cfg"
    cfg.write_text(LEMMA_CFG)
    grid = tmp_path / "grid.txt"
    grid.write_text("p = 50, u = 0.5\n")
    argv = [a.replace("{cfg}", str(cfg)).replace("{grid}", str(grid)) for a in argv] + ["--reps", "300"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} applies to ") and argv[2] in err
    assert drawn == []


@pytest.mark.parametrize("estimator", ["mle", "aggregated"])
def test_a_response_too_large_for_best_subset_is_an_error_line(tmp_path, capsys, estimator):
    # the response energy overflows, so the config is refused before any
    # draw; before, both ended in an AssertionError traceback (the
    # aggregated estimator takes the best-subset branch here)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(
        "n = 5\np = 6\nk = 1\nsigma = 1.0\neps = 0.5\namplitudes = 1e300\nreps = 1\n"
        f"master_seed = 3\nestimator_id = {estimator}\n"
    )
    out = tmp_path / "out"
    out.mkdir()
    assert run(["simulate-risk", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sigma=1.0 and amplitudes=1e+300 give a response energy") and err.count("\n") == 1
    assert list(out.iterdir()) == []


_SMALL_SWEEP = "n = 12\np = 6\nk = 1\nsigma = 1.0\neps = 0.5\namplitudes = 2.0\nreps = 1\nmaster_seed = 3\n"


@pytest.mark.parametrize(
    "argv, text, field",
    [
        (["check-lemma", "--lemma", "gap", "--reps", "2"], LEMMA_CFG.replace("sigma = 1.0", "sigma = 1e300"), "amplitude=4.0"),
        (["sweep", "--estimators", "oracle,lasso,slope,mle,aggregated"], _SMALL_SWEEP.replace("sigma = 1.0", "sigma = 1e300"), "amplitudes=2.0"),
        (["sweep", "--estimators", "oracle,lasso,slope,mle,aggregated"], _SMALL_SWEEP.replace("= 2.0", "= 1e300"), "amplitudes=1e+300"),
        # the noise used to be lost in rounding here: exit 0, minimax_ratio=0
        (["sweep", "--estimators", "oracle"], _SMALL_SWEEP.replace("= 2.0", "= 1e300"), "amplitudes=1e+300"),
    ],
)
def test_a_response_energy_that_overflows_is_refused_before_any_draw(tmp_path, monkeypatch, capsys, argv, text, field):
    drawn = []
    for module in (cli, risk):
        monkeypatch.setattr(module, "gen_design", lambda *args: drawn.append(args))
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    assert run([*argv, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: sigma=")
    assert f" and {field} give a response energy n(sigma^2 + k a^2) that overflows a float" in err
    assert drawn == []


def test_sweep_refuses_an_empty_estimator_list_by_name(tmp_path, risk_config, capsys):
    assert run(["sweep", "--config", risk_config, "--estimators", " , ", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: estimators must name at least one estimator\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "risk.cfg"]


def _callers(source: str, name: str) -> set[str]:
    """The top-level functions of source that call name, or index it and
    call the result (a table of functions)."""
    callers = set()
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func.value if isinstance(node.func, ast.Subscript) else node.func
                if isinstance(func, ast.Name) and func.id == name:
                    callers.add(fn.name)
    return callers


def test_one_function_runs_a_command():
    # the handlers build configs and print; checking --out, stamping the
    # start, producing and writing happen in _run_command (and replay
    # produces and compares)
    source = pathlib.Path(cli.__file__).read_text(encoding="utf-8")
    assert _callers(source, "_require_out_dir") == {"_run_command"}
    assert _callers(source, "_write_run") == {"_run_command"}
    assert _callers(source, "_utc_now") == {"_run_command", "_write_run"}
    assert _callers(source, "_PRODUCERS") == {"_run_command", "_cmd_replay"}
    for producer in cli._PRODUCERS.values():
        assert not any(name.startswith("_cmd_") for name in _callers(source, producer.__name__))
    # one key = value splitter, in the module that owns the file formats
    package = pathlib.Path(cli.__file__).parent
    splitting = sorted(path.name for path in package.glob("*.py") if 'split("=", 1)' in path.read_text(encoding="utf-8"))
    assert splitting == ["config.py"]


def test_config_fields_are_stated_once_in_config():
    # cli writes down no list of config field names of its own, and every
    # name that _fields, _check_field or check_lemma_settings reads has its
    # kind in config's table
    known = set(config_mod.FIELD_KINDS)
    read = set()
    for node in ast.walk(ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
            names = {elt.value for elt in node.elts if isinstance(elt, ast.Constant)} & known
            assert not names, f"cli line {node.lineno} lists config fields {sorted(names)}"
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_fields", "_check_field"):
            for arg in node.args[2:] if node.func.id == "_fields" else node.args[1:2]:
                if isinstance(arg, ast.Starred):
                    read.update(getattr(cli, arg.value.id))
                elif isinstance(arg, ast.Constant):
                    read.add(arg.value)
    for node in ast.walk(ast.parse(inspect.getsource(config_mod.check_lemma_settings))):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            read.add(node.slice.value)
    assert {"experiment", "estimators", "settings", "grid", "lemma", "eps", "k_star", "outputs"} <= read
    assert sorted(read - known) == []


def test_one_function_turns_a_replicate_into_a_design():
    # risk.map_replicates draws every replicate design, for the sweep and
    # the proof drivers alike; diagnose-design draws its one design itself
    # (a call by attribute, in a class or at module level counts too)
    package = pathlib.Path(cli.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and "gen_design" in (getattr(inner.func, "id", None), getattr(inner.func, "attr", None)):
                    callers.add((path.stem, getattr(node, "name", "<module>")))
    assert callers == {("risk", "map_replicates"), ("cli", "_produce_diagnose")}


def test_out_of_memory_is_an_error_line(monkeypatch, capsys):
    import sparse_minimax.cli as cli_mod

    def no_memory(n, p, seed, threads=None):
        raise MemoryError(f"Unable to allocate {8 * n * p / 2**30:.1f} GiB for an array with shape ({p}, {n})")

    monkeypatch.setattr(cli_mod, "gen_design", no_memory)
    monkeypatch.setattr(rng, "_memory_budget", lambda: None)  # unknown budget: admission lets it through
    argv = ["diagnose-design", "--n", "100000", "--p", "100000", "--k", "2", "--eps", "0.1"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 74.5 GiB for an array with shape (100000, 100000)\n"


@pytest.mark.parametrize("n, p, need", [(4000, 2000, 8 * 4000 * 2000 + 24 * 2000**2), (100, 300, 8 * 100 * 300 + 24 * 101**2)])
def test_diagnose_design_is_refused_before_the_draw_when_it_cannot_fit(monkeypatch, capsys, n, p, need):
    drawn = []
    monkeypatch.setattr(cli, "gen_design", lambda *args: drawn.append(args))
    monkeypatch.setattr(rng, "_memory_budget", lambda: need - 1)
    assert run(["diagnose-design", "--n", str(n), "--p", str(p), "--k", "2", "--eps", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: diagnose-design") and "Traceback" not in err
    assert f"n={n}, p={p}" in err and f"needs about {need} bytes" in err and f"the {need - 1} bytes" in err
    assert drawn == []


class _Drawn(Exception):
    pass


_NP = 8 * 400 * 800  # one design at n=400, p=800
_GRAM = 24 * 401**2  # its Gram matrix and two copies
_SIZE_CFG = "n = 400\np = 800\nk = 4\nsigma = 1.0\neps = 0.1\n"
_RISK_EXTRA = "amplitudes = 2.0, 4.0\nreps = 3\nmaster_seed = 1\n"


@pytest.mark.parametrize(
    "command, argv, need",
    [
        ("simulate-risk", ["simulate-risk", "--out", "{out}"], _NP + 9 * 1 * 2 * 3),
        ("sweep", ["sweep", "--estimators", "oracle,aggregated", "--out", "{out}"], _NP + 9 * 2 * 2 * 3 + _GRAM),
    ]
    + [
        (f"check-lemma --lemma {lemma}", ["check-lemma", "--lemma", lemma, "--reps", "3"],
         _NP + 8 * 3 + (_GRAM if lemma in ("l2-bound", "moments") else 0))
        for lemma in PROOF_LEMMAS
    ],
)
def test_replicate_commands_are_refused_before_any_draw_when_they_cannot_fit(
    tmp_path, monkeypatch, capsys, command, argv, need
):
    # one design, the per-replicate results, and a Gram matrix where the
    # event check forms one; at exactly that budget the first draw starts
    cfg = tmp_path / "cfg"
    risk_extra = {"simulate-risk": _RISK_EXTRA + "estimator_id = oracle\n", "sweep": _RISK_EXTRA}
    cfg.write_text(_SIZE_CFG + risk_extra.get(command, ""))
    argv = [a.replace("{out}", str(tmp_path)) for a in argv] + ["--config", str(cfg)]
    drawn = []

    def drawing(*args):
        drawn.append(args)
        raise _Drawn

    for module in (cli, risk):
        monkeypatch.setattr(module, "gen_design", drawing)
    monkeypatch.setattr(rng, "_memory_budget", lambda: need - 1)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command} at n=400, p=800, reps=3 needs about {need} bytes (") and "Traceback" not in err
    assert err.endswith(f"more than the {need - 1} bytes available\n")
    assert drawn == []
    monkeypatch.setattr(rng, "_memory_budget", lambda: need)
    with pytest.raises(_Drawn):
        run(argv)




def _no_bare_constants(name):
    raise AssertionError(f"bare {name} in a JSON file")


@pytest.mark.parametrize(
    "lemma, count, rate",
    [("l2-bound", "on_event", "violation_rate"), ("moments", "on_event", None), ("stochastic-error", "applicable", "failure_rate")],
)
def test_a_driver_that_no_replicate_informs_fails_and_writes_strict_json(tmp_path, capsys, lemma, count, rate):
    # the event never holds at this size and eps, so no replicate informs
    # the event drivers, and the stochastic-error event applies to none
    cfg = tmp_path / "cfg"
    cfg.write_text(_SIZE_CFG)
    argv = ["check-lemma", "--lemma", lemma, "--config", str(cfg), "--reps", "8", "--seed", "1", "--out", str(tmp_path)]
    assert run(argv) == 2
    payload = json.loads((tmp_path / f"lemma_{lemma}.json").read_text(), parse_constant=_no_bare_constants)
    report = payload["report"]
    assert report[count] == 0 and report["passed"] is False
    if rate is not None:
        assert report[rate] is None
    assert json.loads(capsys.readouterr().out, parse_constant=_no_bare_constants) == report


def test_json_files_refuse_non_finite_numbers():
    with pytest.raises(ValueError):
        cli._json_bytes({"rate": math.nan})


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
    monkeypatch.setattr(rng.SeedSpec, "generator", lambda *args: drawn.append(args))
    monkeypatch.setattr(rng, "_memory_budget", lambda: need - 1)
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
    on_event = 0
    for rep in range(4):
        spec = SeedSpec(3, rep)
        design = gen_design(settings["n"], settings["p"], spec)
        inst, _ = cli._instance(settings, spec, design)
        calls.clear()
        lasso_fit(design.entries, inst.response, LassoConfig(lam=cli._lasso_level(settings)))
        lasso_products = len(calls)
        calls.clear()
        cli._gap_replicate(settings, spec, design)
        assert len(calls) == lasso_products + 1
        calls.clear()
        fitted = cli._event_error_replicate(settings, spec, design) is not None
        assert len(calls) == (lasso_products if fitted else 0)
        on_event += fitted
    assert 0 < on_event < 4  # both branches of the l2 replicate ran


def test_unknown_flag_and_missing_subcommand(capsys):
    assert run(["simulate-risk", "--frobnicate"]) == 1
    assert run([]) == 1
    assert run(["--help"]) == 0


def test_grid_text_parser():
    points = parse_grid_text("# comment\np = 10, u = 0.5\n\nd=3,tau=0.2\n")
    assert points == [{"p": 10, "u": 0.5}, {"d": 3, "tau": 0.2}]
    with pytest.raises(ValueError, match="line 1"):
        parse_grid_text("p 10\n")
    with pytest.raises(ValueError):
        parse_grid_text("p = ten\n")
    with pytest.raises(ValueError):
        parse_grid_text("# nothing\n")
    # a repeated key is refused, naming the grid line, instead of the last value winning
    with pytest.raises(ValueError, match="^grid line 2: duplicate key 'p'$"):
        parse_grid_text("p = 50, u = 0.5\np=100, p=200, u=0.5\n")
    with pytest.raises(ValueError, match="^grid line 1: empty key$"):
        parse_grid_text("= 3, u = 0.5\n")


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
print("loaded:" + ",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])))
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
    # no CLI path loads any part of scipy; numpy 2.4's np.unique (and so
    # union1d and setdiff1d) imports numpy.ma, 11-19 ms of the first fit,
    # so the fit path builds its index sets without them
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
