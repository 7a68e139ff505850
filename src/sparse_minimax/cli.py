"""Experiment driver: config parsing, subcommand dispatch, deterministic
execution, atomic report emission, and byte-exact replay.

Exit codes: 0 on success, 2 when a checked property fails (a lemma row, a
design event, a replay mismatch), 1 for usage and configuration errors.
Every run directory gets a manifest; `replay` reruns a manifest's work and
byte-compares the data files it lists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__
from . import _kernels as _k
from .config import (
    CHECK_LEMMA_FIELDS,
    DIAGNOSE_FIELDS,
    FIELD_KINDS,
    FILE_NAMES,
    GRID,
    INTEGER,
    LEMMA_FIELDS,
    LIST_OF_STRINGS,
    OBJECT_OF_STRINGS,
    REAL,
    REQUIRED,
    STRING,
    check_lemma_settings,
    experiment_config_from_mapping,
    experiment_config_to_mapping,
    lemma_config_from_mapping,
    load_kv,
    parse_grid_text,
)
from .design import gen_design, make_signal, synthesize
from .diagnostics import delta_consts, event_a_check
from .estimators import LassoConfig, lambda_eps, lasso_fit, oracle_estimator
from .events import (
    StochasticErrorParams,
    b_delta_check,
    lasso_l2_bound,
    lasso_moment_bound,
    oracle_lasso_gap_check,
    stochastic_error_event_check,
    stochastic_u_samples,
)
from .risk import empirical_risk, empirical_risks, map_replicates, minimax_denominator, predicted_ratio
from .rng import CapacityError, SeedSpec, admit
from .tails import REGISTRY, check_tail_bound

_MANIFEST_NAME = "manifest.json"
_MANIFEST_MAGIC = "sparse-minimax-manifest-v1"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _atomic_write(path: str, data: bytes) -> None:
    """Write via a temp file in the same directory plus rename, so readers
    never observe a partial file."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_bytes(obj) -> bytes:
    """Strict JSON: a NaN or infinity is refused, naming its field, instead
    of being written."""
    try:
        return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()
    except ValueError:
        found = _non_finite(obj, "")
        if found is None:
            raise
        raise ValueError(f"{found[0]} must be finite to be written as JSON, got {found[1]}") from None


def _non_finite(obj, path: str):
    """(path, value) of the first NaN or infinity in obj, in the order
    _json_bytes writes it, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, dict):
        items = ((f"{path}.{key}" if path else str(key), obj[key]) for key in sorted(obj))
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(obj))
    else:
        return None
    for where, value in items:
        found = _non_finite(value, where)
        if found is not None:
            return found
    return None


def _require_out_dir(out: str) -> None:
    if not os.path.isdir(out):
        raise _UsageError(f"output directory does not exist: {out}")


def _write_run(out: str, subcommand: str, config, files: dict[str, bytes], started: str, master_seed) -> None:
    for name, data in files.items():
        _atomic_write(os.path.join(out, name), data)
    manifest = {
        "format": _MANIFEST_MAGIC,
        "subcommand": subcommand,
        "config": config,
        "master_seed": master_seed,
        "version": __version__,
        "started_at": started,
        "finished_at": _utc_now(),
        "outputs": {name: {"sha256": _sha256(data), "bytes": len(data)} for name, data in files.items()},
    }
    _atomic_write(os.path.join(out, _MANIFEST_NAME), _json_bytes(manifest))


def _check_field(where: str, name: str, value) -> None:
    """Refuse, by name, a value whose JSON type is not the field's kind in
    config.FIELD_KINDS (delta0 may also be null: the drivers then resolve it
    from eps). The containers are checked down to what their readers index;
    config and settings are checked by the _fields call that reads them."""
    kind = FIELD_KINDS[name]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if (
        (kind is INTEGER and not (number and isinstance(value, int)))
        or (kind is REAL and not (number or (name == "delta0" and value is None)))
        or (kind is STRING and not isinstance(value, str))
        or (kind is LIST_OF_STRINGS and not (isinstance(value, list) and all(isinstance(e, str) for e in value)))
        or (kind is GRID and not (value is None or (isinstance(value, list) and all(isinstance(pt, dict) for pt in value))))
    ):
        raise ValueError(f"{where} {name} must be {kind}, got {value!r}")
    if kind in (OBJECT_OF_STRINGS, FILE_NAMES) and not isinstance(value, dict):
        raise ValueError(f"{where} {name} must be an object, got {value!r}")
    if kind is OBJECT_OF_STRINGS:
        for key, text in value.items():
            if not isinstance(text, str):
                raise ValueError(f"{where} {name} {key} must be a string, got {text!r}")
    if kind is FILE_NAMES:
        for file_name in value:  # joined to the run directory by replay
            if file_name in ("", ".", "..") or "/" in file_name or "\\" in file_name:
                raise ValueError(f"{where} {name} name {file_name!r} is not a plain file name")


def _fields(mapping, where: str, *names: str) -> list:
    """mapping's values for names. Manifests can be edited by hand, so a
    mapping that is not an object, lacks one of names or gives a field a
    value of another JSON type is refused by name before any work."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{where} must be an object, got {type(mapping).__name__}")
    missing = [name for name in names if name not in mapping]
    if missing:
        raise ValueError(f"{where} lacks {', '.join(missing)}")
    for name in names:
        _check_field(where, name, mapping[name])
    return [mapping[name] for name in names]


# --- memory admission --------------------------------------------------------


def _admit(command: str, n: int, p: int, reps: int | None, result_bytes: int, gram: bool) -> None:
    """Refuse a command whose working set cannot fit in the memory budget,
    before it draws anything. The working set is one n x p design (a
    command holds one at a time), ``result_bytes`` of per-replicate results
    and, where the event check runs, the Gram matrix and the two copies
    that ``eigvalsh`` and ``solve`` make of it on the exact cone route."""
    need = 8 * n * p + result_bytes + (3 * 8 * min(p, n + 1) ** 2 if gram else 0)
    at = f"n={n}, p={p}" + (f", reps={reps}" if reps is not None else "")
    held = "one design" + (", the per-replicate results" if reps is not None else "")
    held += ", a Gram matrix and two copies of it" if gram else ""
    admit(need, f"{command} at {at}", held)


# --- simulate-risk / sweep ---------------------------------------------------


def _admit_risk(command: str, cfg, estimators) -> None:
    """The errors array (8 bytes) and flags array (1 byte) hold one entry
    per estimator, amplitude and replicate; the aggregated estimator runs
    the event check."""
    results = 9 * len(estimators) * len(cfg.amplitudes) * cfg.reps
    _admit(command, cfg.n, cfg.p, cfg.reps, results, "aggregated" in estimators)


def _risk_files(mapping: dict[str, str], threads) -> tuple[dict[str, bytes], dict]:
    """CSV, TSV, and JSON summary for one estimator run; pure function of
    the resolved mapping, so replay can regenerate the bytes."""
    cfg = experiment_config_from_mapping(mapping)
    _admit_risk("simulate-risk", cfg, (cfg.estimator_id,))
    return _format_risk(cfg, empirical_risk(cfg, threads=threads))


def _format_risk(cfg, report) -> tuple[dict[str, bytes], dict]:
    """The data files and summary of one estimator's risk report."""
    est = cfg.estimator_id
    scale = cfg.amplitude_scale
    amps_abs = [a * scale for a in cfg.amplitudes]

    lines = ["amplitude,replicate,sq_error,estimator,seed"]
    for a, amp in enumerate(amps_abs):
        for rep in range(cfg.reps):
            lines.append(f"{amp!r},{rep},{float(report.errors[a, rep])!r},{est},{cfg.master_seed}")
    csv_data = ("\n".join(lines) + "\n").encode()

    tsv_lines = ["amplitude\tmean\tstderr"]
    for amp, mean, se in zip(amps_abs, report.means, report.stderrs):
        tsv_lines.append(f"{amp!r}\t{mean!r}\t{se!r}")
    tsv_data = ("\n".join(tsv_lines) + "\n").encode()

    summary = {
        "subcommand": "simulate-risk",
        "manifest": _MANIFEST_NAME,
        "estimator": est,
        "config": experiment_config_to_mapping(cfg),
        "amplitudes": list(cfg.amplitudes),
        "amplitudes_absolute": amps_abs,
        "means": list(report.means),
        "stderrs": list(report.stderrs),
        "flags": [[bool(f) for f in row] for row in report.flags],
        "flagged": report.flagged,
        "denominator": report.denominator,
        "minimax_ratio": report.minimax_ratio,
        "predicted_ratio": predicted_ratio(cfg.n, cfg.p, cfg.k, cfg.eps),
    }
    files = {
        f"risk_{est}.csv": csv_data,
        f"risk_{est}.tsv": tsv_data,
        f"summary_{est}.json": _json_bytes(summary),
    }
    return files, summary


def _produce_simulate_risk(config: dict, threads=None) -> tuple[dict[str, bytes], bool]:
    (experiment,) = _fields(config, "config", "experiment")
    files, _ = _risk_files(experiment, threads)
    return files, True


def _produce_sweep(config: dict, threads=None) -> tuple[dict[str, bytes], bool]:
    """One pass over the replicates fits every listed estimator on the same
    designs; each estimator's files match a simulate-risk run of it alone."""
    experiment, estimators = _fields(config, "config", "experiment", "estimators")
    if not estimators:
        raise ValueError("estimators must name at least one estimator")
    cfgs = {est: experiment_config_from_mapping(dict(experiment, estimator_id=est)) for est in estimators}
    # every estimator config shares n, p, k, sigma, reps and the seed
    cfg = cfgs[estimators[0]]
    _admit_risk("sweep", cfg, estimators)
    reports = empirical_risks(cfg, estimators, threads)
    files: dict[str, bytes] = {}
    combined = {}
    for est in estimators:
        est_files, summary = _format_risk(cfgs[est], reports[est])
        files.update(est_files)
        combined[est] = {
            "minimax_ratio": summary["minimax_ratio"],
            "means": summary["means"],
            "stderrs": summary["stderrs"],
            "flagged": summary["flagged"],
        }
    sweep_summary = {
        "subcommand": "sweep",
        "manifest": _MANIFEST_NAME,
        "experiment": experiment,
        "estimators": combined,
        "denominator": minimax_denominator(cfg.n, cfg.p, cfg.k, cfg.sigma_eff),
    }
    files["sweep_summary.json"] = _json_bytes(sweep_summary)
    return files, True


# --- diagnose-design ---------------------------------------------------------


def _produce_diagnose(config: dict) -> tuple[dict[str, bytes], bool]:
    n, p, k, eps, restarts, seed = _fields(config, "config", *DIAGNOSE_FIELDS)
    if n < 1 or p < 1:
        raise ValueError(f"design dimensions must be positive, got n={n}, p={p}")
    if not 1 <= k < p:
        raise ValueError(f"need 1 <= k < p, got k={k}, p={p}")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    _admit("diagnose-design", n, p, None, 0, gram=True)
    spec = SeedSpec(seed)
    design = gen_design(n, p, spec)
    report = event_a_check(design.entries, k, eps, restarts=restarts, seed=spec)
    payload = {
        "subcommand": "diagnose-design",
        "manifest": _MANIFEST_NAME,
        "config": config,
        "report": report.to_json(),
    }
    return {"diagnose.json": _json_bytes(payload)}, bool(report.holds)


# --- check-lemma: proof-lemma drivers ----------------------------------------


def _instance(settings: dict, spec: SeedSpec, design):
    """The lemma instance on a replicate's design: the signal at the
    settings' amplitude and the replicate's noise, with the dense beta."""
    scale = settings["sigma"] * math.sqrt(2.0 * math.log(settings["p"] / settings["k"]) / settings["n"])
    signal = make_signal(settings["p"], settings["k"], settings["amplitude"] * scale, seed=spec)
    return synthesize(design, signal, settings["sigma"], spec), signal.dense()


def _lasso_level(settings: dict) -> float:
    return lambda_eps(settings["eps"], settings["sigma"], settings["n"], settings["p"], settings["k"])


def _gap_replicate(settings: dict, spec: SeedSpec, design):
    """The replicate's resolvent report and oracle-Lasso gap check."""
    inst, beta = _instance(settings, spec, design)
    X, z = design.entries, inst.noise.z
    lam = _lasso_level(settings)
    res = lasso_fit(X, inst.response, LassoConfig(lam=lam))
    xtz = _k.xt_dot(X, z)  # one product for both the oracle and the resolvent set
    beta_o = oracle_estimator(beta, X, z, lam, xtz=xtz)
    rr = b_delta_check(inst, res.beta_hat, beta_o, settings["k_star"], xtz=xtz)
    return rr, oracle_lasso_gap_check(beta, res.beta_hat, beta_o, rr)


def _gap_report(settings: dict, results: list) -> dict:
    reps = len(results)
    contained = vacuous = violations = 0
    min_margin = math.inf
    for rr, gc in results:
        contained += rr.contains_all
        if gc.vacuous:
            vacuous += 1
            continue
        violations += not gc.holds
        min_margin = min(min_margin, gc.rhs - gc.lhs)
    checked = reps - vacuous
    return {
        "lemma": "gap",
        "reps": reps,
        "contained": contained,
        "containment_rate": contained / reps,
        "vacuous": vacuous,
        "checked": checked,
        "violations": violations,
        "min_margin": None if checked == 0 else min_margin,
        "passed": violations == 0 and checked > 0,
    }


def _resolvent_report(settings: dict, results: list) -> dict:
    reps = len(results)
    contained = sum(rr.contains_all for rr, _ in results)
    deltas = [rr.delta_emp for rr, _ in results]
    rate = contained / reps
    return {
        "lemma": "resolvent",
        "reps": reps,
        "contained": contained,
        "containment_rate": rate,
        "delta_emp_mean": float(np.mean(deltas)),
        "delta_emp_max": float(np.max(deltas)),
        "passed": rate >= 0.9,
    }


def _resolved_delta0(settings: dict) -> float:
    if settings["delta0"] is not None:
        return settings["delta0"]
    return delta_consts(settings["eps"])[0]


def _stochastic_replicate(settings: dict, spec: SeedSpec, design):
    params = StochasticErrorParams(
        _resolved_delta0(settings), settings["delta1"], settings["delta2"], settings["delta3"]
    )
    inst, _ = _instance(settings, spec, design)
    X, z, k = design.entries, inst.noise.z, settings["k"]
    samples = stochastic_u_samples(X, z, k, settings["u_samples"], spec)
    chk = stochastic_error_event_check(X, z, params, samples, k, settings["sigma"])
    return chk.applicable, chk.all_hold


def _rate_check(hits: int, count: int, level: float) -> tuple:
    """The rate of hits among count informative replicates (None when there
    are none), its slack of three binomial standard errors at level, and
    whether it passes: some replicate informed it and it is at most level
    plus slack."""
    slack = 3.0 * math.sqrt(level * (1.0 - level) / count) if count else 0.0
    rate = hits / count if count else None
    return rate, slack, count > 0 and rate <= level + slack


def _stochastic_report(settings: dict, results: list) -> dict:
    applicable = failures = 0
    for is_applicable, all_hold in results:
        if not is_applicable:
            continue
        applicable += 1
        failures += not all_hold
    level = settings["delta3"]
    rate, slack, passed = _rate_check(failures, applicable, level)
    return {
        "lemma": "stochastic-error",
        "reps": len(results),
        "applicable": applicable,
        "failures": failures,
        "failure_rate": rate,
        "level": level,
        "slack": slack,
        "passed": passed,
    }


def _event_error_replicate(settings: dict, spec: SeedSpec, design):
    """The Lasso's l2 error on the replicate, or None off the conditioning
    event (no fit is made there)."""
    inst, beta = _instance(settings, spec, design)
    holds = event_a_check(
        design.entries, settings["k"], settings["eps"], restarts=settings["restarts"], seed=spec
    ).holds
    if not holds:
        return None
    res = lasso_fit(design.entries, inst.response, LassoConfig(lam=_lasso_level(settings)))
    return float(np.linalg.norm(res.beta_hat - beta))


def _l2_report(settings: dict, results: list) -> dict:
    d0 = _resolved_delta0(settings)
    bound = lasso_l2_bound(
        settings["k"], settings["n"], settings["p"], settings["sigma"], settings["eps"],
        d0, settings["delta2"], settings["delta3"], delta1=settings["delta1"],
    )
    on_event = violations = 0
    worst = 0.0
    for err in results:
        if err is None:
            continue
        on_event += 1
        worst = max(worst, err)
        violations += err > bound
    level = settings["delta3"]
    rate, slack, passed = _rate_check(violations, on_event, level)
    return {
        "lemma": "l2-bound",
        "reps": len(results),
        "bound": bound,
        "on_event": on_event,
        "violations": violations,
        "violation_rate": rate,
        "worst_error": worst,
        "level": level,
        "slack": slack,
        "passed": passed,
    }


def _moments_report(settings: dict, results: list) -> dict:
    reps = len(results)
    q = settings["q"]
    d0 = _resolved_delta0(settings)
    bound = lasso_moment_bound(
        q, settings["k"], settings["n"], settings["p"], settings["sigma"], settings["eps"],
        d0, settings["delta2"],
    )
    vals = np.zeros(reps)
    on_event = 0
    for rep, err in enumerate(results):
        if err is None:
            continue  # the moment carries the event indicator: off-event terms are 0
        on_event += 1
        vals[rep] = err**q
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(reps)) if reps >= 2 else 0.0
    return {
        "lemma": "moments",
        "reps": reps,
        "q": q,
        "bound": bound,
        "on_event": on_event,
        "moment": mean,
        "stderr": stderr,
        "passed": on_event > 0 and mean + 3.0 * stderr <= bound,
    }


# each proof driver: its replicate function of (settings, spec, design), run
# through risk.map_replicates, and the reduction of (settings, results)
_PROOF_DRIVERS = {
    "gap": (_gap_replicate, _gap_report),
    "resolvent": (_gap_replicate, _resolvent_report),
    "stochastic-error": (_stochastic_replicate, _stochastic_report),
    "l2-bound": (_event_error_replicate, _l2_report),
    "moments": (_event_error_replicate, _moments_report),
}

PROOF_LEMMAS = tuple(_PROOF_DRIVERS)


def _proof_report(lemma: str, settings: dict, reps: int, seed: int) -> dict:
    """The proof driver's report over replicates 0 .. reps - 1 of seed."""
    replicate, reduce = _PROOF_DRIVERS[lemma]
    results = map_replicates(settings["n"], settings["p"], seed, reps, partial(replicate, settings))
    return reduce(settings, results)


def _produce_check_lemma(config: dict) -> tuple[dict[str, bytes], bool]:
    """A proof-lemma driver's result, or a tail-registry row's report."""
    lemma, reps, seed = _fields(config, "config", *CHECK_LEMMA_FIELDS)
    if lemma in _PROOF_DRIVERS:
        (settings,) = _fields(config, "config", "settings")
        _fields(settings, "config settings", *LEMMA_FIELDS)
        check_lemma_settings(settings)
        if reps < 1:
            raise ValueError(f"reps must be at least 1, got {reps}")
        _admit(
            f"check-lemma --lemma {lemma}", settings["n"], settings["p"], reps, 8 * reps,
            gram=lemma in ("l2-bound", "moments"),
        )
        report = _proof_report(lemma, settings, reps, seed)
        passed = bool(report["passed"])
    else:
        grid = config.get("grid")
        _check_field("config", "grid", grid)
        tail = check_tail_bound(lemma, grid=grid, reps=reps, seed=seed)
        report, passed = tail.to_json(), tail.passed
    payload = {"subcommand": "check-lemma", "manifest": _MANIFEST_NAME, "config": config, "report": report}
    return {f"lemma_{lemma}.json": _json_bytes(payload)}, passed


_PRODUCERS = {
    "simulate-risk": _produce_simulate_risk,
    "sweep": _produce_sweep,
    "diagnose-design": _produce_diagnose,
    "check-lemma": _produce_check_lemma,
}


# --- the run path --------------------------------------------------------------


def _run_command(subcommand: str, config: dict, out: str | None, **options) -> tuple[dict[str, bytes], bool]:
    """The one run path: check ``out`` when given, stamp the start, produce
    the files from config (the producer checks it, as in ``replay``) and
    write them with the manifest into ``out``."""
    if out is not None:
        _require_out_dir(out)
    started = _utc_now()
    files, passed = _PRODUCERS[subcommand](config, **options)
    if out is not None:
        seed = config["seed"] if "seed" in config else int(config["experiment"]["master_seed"])
        _write_run(out, subcommand, config, files, started, seed)
    return files, passed


# --- subcommand handlers -----------------------------------------------------


def _experiment_mapping(args) -> dict[str, str]:
    mapping = load_kv(args.config)
    if args.seed is not None:
        mapping["master_seed"] = str(args.seed)
    return mapping


def _cmd_simulate_risk(args) -> int:
    cfg = experiment_config_from_mapping(_experiment_mapping(args))
    config = {"experiment": experiment_config_to_mapping(cfg)}
    files, _ = _run_command("simulate-risk", config, args.out, threads=args.threads)
    summary = json.loads(files[f"summary_{cfg.estimator_id}.json"])
    print(f"estimator={cfg.estimator_id} minimax_ratio={summary['minimax_ratio']:.6g} "
          f"flagged={summary['flagged']} outputs={args.out}")
    return 0


def _cmd_sweep(args) -> int:
    experiment = _experiment_mapping(args)
    experiment.pop("estimator_id", None)
    estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
    config = {"experiment": experiment, "estimators": estimators}
    files, _ = _run_command("sweep", config, args.out, threads=args.threads)
    summary = json.loads(files["sweep_summary.json"])
    for est in estimators:
        print(f"estimator={est} minimax_ratio={summary['estimators'][est]['minimax_ratio']:.6g}")
    print(f"outputs={args.out}")
    return 0


def _cmd_diagnose_design(args) -> int:
    config = {name: getattr(args, name) for name in DIAGNOSE_FIELDS}
    files, passed = _run_command("diagnose-design", config, args.out)
    print(json.dumps(json.loads(files["diagnose.json"])["report"], sort_keys=True, indent=2))
    return 0 if passed else 2


def _cmd_check_lemma(args) -> int:
    config = {name: getattr(args, name) for name in CHECK_LEMMA_FIELDS}
    if args.lemma in _PROOF_DRIVERS:
        if args.config is None:
            raise _UsageError(f"--lemma {args.lemma} needs --config with the instance settings")
        if args.grid is not None:
            raise _UsageError(f"--grid applies to tail-registry rows only, not to --lemma {args.lemma}")
        config["settings"] = lemma_config_from_mapping(load_kv(args.config))
    elif args.lemma in REGISTRY:
        if args.config is not None:
            raise _UsageError(f"--config applies to proof lemmas only, not to --lemma {args.lemma}")
        config["grid"] = None
        if args.grid is not None:
            with open(args.grid, encoding="utf-8") as fh:
                config["grid"] = parse_grid_text(fh.read())
    else:
        known = ", ".join(list(_PROOF_DRIVERS) + sorted(REGISTRY))
        raise _UsageError(f"unknown lemma {args.lemma!r}; known: {known}")
    files, passed = _run_command("check-lemma", config, args.out)
    rep = json.loads(files[f"lemma_{args.lemma}.json"])["report"]
    if args.lemma in _PROOF_DRIVERS:
        print(json.dumps(rep, sort_keys=True, indent=2))
    else:
        lines = [f"lemma {rep['lemma_id']}  reps={rep['reps']}  seed={rep['seed']}"]
        if rep["note"]:
            lines.append(f"  note: {rep['note']}")
        for row in rep["rows"]:
            params = " ".join(f"{k}={v}" for k, v in row["params"].items())
            verdict = "pass" if row["passed"] else "FAIL"
            lines.append(
                f"  {params}: empirical={row['empirical']:.6g} bound={row['bound']:.6g} "
                f"slack={row['slack']:.3g} margin={row['margin']:+.6g} {verdict}"
            )
        n_pass = sum(r["passed"] for r in rep["rows"])
        lines.append(f"{'PASS' if rep['passed'] else 'FAIL'} ({n_pass}/{len(rep['rows'])} grid points)")
        print("\n".join(lines))
    return 0 if passed else 2


def _cmd_replay(args) -> int:
    try:
        with open(args.manifest, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read manifest: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _UsageError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != _MANIFEST_MAGIC:
        raise _UsageError(f"not a run manifest: {args.manifest}")
    if manifest.get("version") != __version__:
        print(f"warning: manifest version {manifest.get('version')} != {__version__}; comparing anyway", file=sys.stderr)
    subcommand, config, outputs = _fields(manifest, "manifest", "subcommand", "config", "outputs")
    if subcommand not in _PRODUCERS:
        raise _UsageError(f"manifest names unknown subcommand {subcommand!r}")
    base = os.path.dirname(os.path.abspath(args.manifest))
    paths = {name: os.path.join(base, name) for name in outputs}
    for path in paths.values():  # before the work, which can be long
        if not os.path.exists(path):
            print(f"missing output file: {path}", file=sys.stderr)
            return 1
    files, _ = _PRODUCERS[subcommand](config)
    mismatched = []
    for name, path in paths.items():
        with open(path, "rb") as fh:
            if files.get(name) != fh.read():
                mismatched.append(name)
    for name in mismatched:
        print(f"mismatch: {name}")
    print(f"replay: {len(outputs) - len(mismatched)}/{len(outputs)} files identical")
    return 2 if mismatched else 0


_OPTION_TYPES = {INTEGER: int, REAL: float, STRING: str}


def _add_field_options(parser, fields: dict, **helps) -> None:
    """One option per field of a command, typed by its kind; a field
    without a default is required."""
    for name, default in fields.items():
        given = {"required": True} if default is REQUIRED else {"default": default}
        parser.add_argument(f"--{name}", type=_OPTION_TYPES[FIELD_KINDS[name]], help=helps.get(name), **given)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparse-minimax", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    sim = sub.add_parser("simulate-risk", help="run one risk experiment from a config file")
    sim.add_argument("--config", required=True, help="flat key = value experiment config")
    sim.add_argument("--seed", type=int, default=None, help="override master_seed from the config")
    sim.add_argument("--out", required=True, help="existing directory for CSV/TSV/JSON and the manifest")
    sim.add_argument("--threads", type=int, default=None, help="threads that draw each design (results never depend on this)")
    sim.set_defaults(handler=_cmd_simulate_risk)

    swp = sub.add_parser("sweep", help="run the same experiment for several estimators, sharing seeds")
    swp.add_argument("--config", required=True, help="flat key = value experiment config")
    swp.add_argument("--estimators", default="lasso,oracle", help="comma-separated estimator ids")
    swp.add_argument("--seed", type=int, default=None, help="override master_seed from the config")
    swp.add_argument("--out", required=True, help="existing directory for CSV/TSV/JSON and the manifest")
    swp.add_argument("--threads", type=int, default=None, help="threads that draw each design (results never depend on this)")
    swp.set_defaults(handler=_cmd_sweep)

    diag = sub.add_parser("diagnose-design", help="check the conditioning event on a fresh Gaussian design")
    _add_field_options(diag, DIAGNOSE_FIELDS)
    diag.add_argument("--out", default=None, help="optional directory for the JSON report and manifest")
    diag.set_defaults(handler=_cmd_diagnose_design)

    chk = sub.add_parser("check-lemma", help="Monte Carlo check of one registered inequality")
    _add_field_options(chk, CHECK_LEMMA_FIELDS, lemma=f"one of {', '.join(_PROOF_DRIVERS)} or a tail registry id")
    chk.add_argument("--config", default=None, help="instance settings (proof lemmas only)")
    chk.add_argument("--grid", default=None, help="grid file overriding a registry row's default grid")
    chk.add_argument("--out", default=None)
    chk.set_defaults(handler=_cmd_check_lemma)

    rep = sub.add_parser("replay", help="rerun a manifest and byte-compare its data files")
    rep.add_argument("manifest", help="path to a manifest.json written by a previous run")
    rep.set_defaults(handler=_cmd_replay)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.handler(args)
    except (_UsageError, ValueError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
