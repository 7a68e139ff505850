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

import numpy as np

from . import __version__
from . import _kernels as _k
from .config import (
    experiment_config_from_mapping,
    experiment_config_to_mapping,
    lemma_config_from_mapping,
    load_kv,
)
from .design import gen_design, make_signal, synthesize
from .diagnostics import delta_consts, event_a_check
from .estimators import CapacityError, LassoConfig, lambda_eps, lasso_fit, oracle_estimator
from .events import (
    StochasticErrorParams,
    b_delta_check,
    lasso_l2_bound,
    lasso_moment_bound,
    oracle_lasso_gap_check,
    stochastic_error_event_check,
    stochastic_u_samples,
)
from .risk import (
    _memory_budget,
    empirical_risk,
    empirical_risks,
    map_indexed,
    minimax_denominator,
    predicted_ratio,
    worker_count,
)
from .rng import ROLE_NOISE, SeedSpec
from .tails import REGISTRY, check_tail_bound

PROOF_LEMMAS = ("gap", "stochastic-error", "l2-bound", "moments", "resolvent")

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
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


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


# --- simulate-risk / sweep ---------------------------------------------------


def _risk_files(mapping: dict[str, str], threads) -> tuple[dict[str, bytes], dict]:
    """CSV, TSV, and JSON summary for one estimator run; pure function of
    the resolved mapping, so replay can regenerate the bytes."""
    cfg = experiment_config_from_mapping(mapping)
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
    files, _ = _risk_files(config["experiment"], threads)
    return files, True


def _produce_sweep(config: dict, threads=None) -> tuple[dict[str, bytes], bool]:
    """One pass over the replicates fits every listed estimator on the same
    designs; each estimator's files match a simulate-risk run of it alone."""
    estimators = config["estimators"]
    cfgs = {
        est: experiment_config_from_mapping(dict(config["experiment"], estimator_id=est))
        for est in estimators
    }
    # every estimator config shares n, p, k, sigma, reps and the seed
    cfg = cfgs[estimators[0]]
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
        "experiment": config["experiment"],
        "estimators": combined,
        "denominator": minimax_denominator(cfg.n, cfg.p, cfg.k, cfg.sigma_eff),
    }
    files["sweep_summary.json"] = _json_bytes(sweep_summary)
    return files, True


# --- diagnose-design ---------------------------------------------------------


def _admit_diagnose(n: int, p: int) -> None:
    """Refuse a design whose working set cannot fit before drawing it: the
    n x p design plus, on the exact route, the Gram matrix and the copies
    that ``eigvalsh`` and ``solve`` make of it."""
    need = 8 * n * p + 3 * 8 * min(p, n + 1) ** 2
    budget = _memory_budget()
    if budget is not None and need > budget:
        raise CapacityError(
            f"diagnose-design at n={n}, p={p} needs about {need} bytes "
            f"(the design, its Gram matrix and two copies of that), more than the {budget} bytes available"
        )


def _produce_diagnose(config: dict) -> tuple[dict[str, bytes], bool]:
    _admit_diagnose(config["n"], config["p"])
    spec = SeedSpec(config["seed"])
    design = gen_design(config["n"], config["p"], spec)
    report = event_a_check(design.entries, config["k"], config["eps"], restarts=config["restarts"], seed=spec)
    payload = {
        "subcommand": "diagnose-design",
        "manifest": _MANIFEST_NAME,
        "config": config,
        "report": report.to_json(),
    }
    return {"diagnose.json": _json_bytes(payload)}, bool(report.holds)


# --- check-lemma: registry rows ----------------------------------------------


def _parse_grid_text(text: str) -> list[dict]:
    """Grid file: one point per line, comma-separated key=value pairs.
    Integer-looking values become ints, the rest floats."""
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        point = {}
        for part in line.split(","):
            if "=" not in part:
                raise ValueError(f"grid line {lineno}: expected key=value, got {part.strip()!r}")
            key, value = part.split("=", 1)
            key, value = key.strip(), value.strip()
            try:
                point[key] = int(value)
            except ValueError:
                try:
                    point[key] = float(value)
                except ValueError:
                    raise ValueError(f"grid line {lineno}: {value!r} is not a number") from None
        points.append(point)
    if not points:
        raise ValueError("grid file holds no points")
    return points


# --- check-lemma: proof-lemma drivers ----------------------------------------


def _lemma_instance(settings: dict, rep: int, seed: int):
    spec = SeedSpec(seed, rep)
    design = gen_design(settings["n"], settings["p"], spec)
    scale = settings["sigma"] * math.sqrt(2.0 * math.log(settings["p"] / settings["k"]) / settings["n"])
    signal = make_signal(settings["p"], settings["k"], settings["amplitude"] * scale, seed=spec)
    inst = synthesize(design, signal, settings["sigma"], spec)
    return spec, inst, signal.dense()


def _lasso_level(settings: dict) -> float:
    return lambda_eps(settings["eps"], settings["sigma"], settings["n"], settings["p"], settings["k"])


def _map_replicates(replicate, settings: dict, reps: int, seed: int) -> list:
    """``[replicate(settings, seed, r) for r in range(reps)]``, on worker
    threads.

    Replicate r draws everything from stream r and returns only small
    values, so the list does not depend on the thread count, and a worker
    drops its n x p design before it draws the next one. The count is the
    risk sweep's: SPARSE_MINIMAX_THREADS or the usable CPUs, capped by how
    many designs fit in memory."""
    threads = worker_count(worker_bytes=8 * settings["n"] * settings["p"])  # a float64 design each
    return map_indexed(lambda rep: replicate(settings, seed, rep), reps, threads)


def _gap_replicate(settings: dict, seed: int, rep: int):
    """Replicate rep's resolvent report and oracle-Lasso gap check."""
    _, inst, beta = _lemma_instance(settings, rep, seed)
    X, z = inst.design.entries, inst.noise.z
    lam = _lasso_level(settings)
    res = lasso_fit(X, inst.response, LassoConfig(lam=lam))
    xtz = _k.xt_dot(X, z)  # one product for both the oracle and the resolvent set
    beta_o = oracle_estimator(beta, X, z, lam, xtz=xtz)
    rr = b_delta_check(inst, res.beta_hat, beta_o, settings["k_star"], xtz=xtz)
    return rr, oracle_lasso_gap_check(beta, res.beta_hat, beta_o, rr)


def _driver_gap(settings: dict, reps: int, seed: int) -> dict:
    contained = vacuous = violations = 0
    min_margin = math.inf
    for rr, gc in _map_replicates(_gap_replicate, settings, reps, seed):
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


def _driver_resolvent(settings: dict, reps: int, seed: int) -> dict:
    contained = 0
    deltas = []
    for rr, _ in _map_replicates(_gap_replicate, settings, reps, seed):
        contained += rr.contains_all
        deltas.append(rr.delta_emp)
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


def _stochastic_replicate(settings: dict, seed: int, rep: int):
    params = StochasticErrorParams(
        _resolved_delta0(settings), settings["delta1"], settings["delta2"], settings["delta3"]
    )
    n, p, k, sigma = settings["n"], settings["p"], settings["k"], settings["sigma"]
    spec = SeedSpec(seed, rep)
    X = gen_design(n, p, spec).entries
    z = sigma * spec.generator(ROLE_NOISE).standard_normal(n)
    samples = stochastic_u_samples(X, z, k, settings["u_samples"], spec)
    chk = stochastic_error_event_check(X, z, params, samples, k, sigma)
    return chk.applicable, chk.all_hold


def _driver_stochastic(settings: dict, reps: int, seed: int) -> dict:
    applicable = failures = 0
    for is_applicable, all_hold in _map_replicates(_stochastic_replicate, settings, reps, seed):
        if not is_applicable:
            continue
        applicable += 1
        failures += not all_hold
    level = settings["delta3"]
    slack = 3.0 * math.sqrt(level * (1.0 - level) / applicable) if applicable else 0.0
    rate = failures / applicable if applicable else math.nan
    return {
        "lemma": "stochastic-error",
        "reps": reps,
        "applicable": applicable,
        "failures": failures,
        "failure_rate": rate,
        "level": level,
        "slack": slack,
        "passed": applicable > 0 and rate <= level + slack,
    }


def _event_error_replicate(settings: dict, seed: int, rep: int):
    """The Lasso's l2 error on replicate rep, or None off the conditioning
    event (no fit is made there)."""
    spec, inst, beta = _lemma_instance(settings, rep, seed)
    holds = event_a_check(
        inst.design.entries, settings["k"], settings["eps"], restarts=settings["restarts"], seed=spec
    ).holds
    if not holds:
        return None
    res = lasso_fit(inst.design.entries, inst.response, LassoConfig(lam=_lasso_level(settings)))
    return float(np.linalg.norm(res.beta_hat - beta))


def _driver_l2(settings: dict, reps: int, seed: int) -> dict:
    d0 = _resolved_delta0(settings)
    bound = lasso_l2_bound(
        settings["k"], settings["n"], settings["p"], settings["sigma"], settings["eps"],
        d0, settings["delta2"], settings["delta3"], delta1=settings["delta1"],
    )
    on_event = violations = 0
    worst = 0.0
    for err in _map_replicates(_event_error_replicate, settings, reps, seed):
        if err is None:
            continue
        on_event += 1
        worst = max(worst, err)
        violations += err > bound
    level = settings["delta3"]
    slack = 3.0 * math.sqrt(level * (1.0 - level) / on_event) if on_event else 0.0
    rate = violations / on_event if on_event else math.nan
    return {
        "lemma": "l2-bound",
        "reps": reps,
        "bound": bound,
        "on_event": on_event,
        "violations": violations,
        "violation_rate": rate,
        "worst_error": worst,
        "level": level,
        "slack": slack,
        "passed": on_event > 0 and rate <= level + slack,
    }


def _driver_moments(settings: dict, reps: int, seed: int) -> dict:
    q = settings["q"]
    d0 = _resolved_delta0(settings)
    bound = lasso_moment_bound(
        q, settings["k"], settings["n"], settings["p"], settings["sigma"], settings["eps"],
        d0, settings["delta2"],
    )
    vals = np.zeros(reps)
    on_event = 0
    for rep, err in enumerate(_map_replicates(_event_error_replicate, settings, reps, seed)):
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
        "passed": mean + 3.0 * stderr <= bound,
    }


_PROOF_DRIVERS = {
    "gap": _driver_gap,
    "resolvent": _driver_resolvent,
    "stochastic-error": _driver_stochastic,
    "l2-bound": _driver_l2,
    "moments": _driver_moments,
}


def _produce_check_lemma(config: dict) -> tuple[dict[str, bytes], bool]:
    """A proof-lemma driver's result, or a tail-registry row's report."""
    lemma = config["lemma"]
    if lemma in _PROOF_DRIVERS:
        report = _PROOF_DRIVERS[lemma](config["settings"], config["reps"], config["seed"])
        passed = bool(report["passed"])
    else:
        tail = check_tail_bound(lemma, grid=config.get("grid"), reps=config["reps"], seed=config["seed"])
        report, passed = tail.to_json(), tail.passed
    payload = {
        "subcommand": "check-lemma",
        "manifest": _MANIFEST_NAME,
        "config": config,
        "report": report,
    }
    return {f"lemma_{lemma}.json": _json_bytes(payload)}, passed


_PRODUCERS = {
    "simulate-risk": _produce_simulate_risk,
    "sweep": _produce_sweep,
    "diagnose-design": _produce_diagnose,
    "check-lemma": _produce_check_lemma,
}


# --- subcommand handlers -----------------------------------------------------


def _cmd_simulate_risk(args) -> int:
    _require_out_dir(args.out)
    mapping = load_kv(args.config)
    if args.seed is not None:
        mapping["master_seed"] = str(args.seed)
    cfg = experiment_config_from_mapping(mapping)  # fail before any work
    started = _utc_now()
    config = {"experiment": experiment_config_to_mapping(cfg)}
    files, _ = _produce_simulate_risk(config, threads=args.threads)
    _write_run(args.out, "simulate-risk", config, files, started, cfg.master_seed)
    summary = json.loads(files[f"summary_{cfg.estimator_id}.json"])
    print(f"estimator={cfg.estimator_id} minimax_ratio={summary['minimax_ratio']:.6g} "
          f"flagged={summary['flagged']} outputs={args.out}")
    return 0


def _cmd_sweep(args) -> int:
    _require_out_dir(args.out)
    mapping = load_kv(args.config)
    if args.seed is not None:
        mapping["master_seed"] = str(args.seed)
    estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
    if not estimators:
        raise _UsageError("--estimators must name at least one estimator")
    base = dict(mapping)
    base.pop("estimator_id", None)
    for est in estimators:
        experiment_config_from_mapping(dict(base, estimator_id=est))  # validate all up front
    started = _utc_now()
    config = {"experiment": base, "estimators": estimators}
    files, _ = _produce_sweep(config, threads=args.threads)
    _write_run(args.out, "sweep", config, files, started, int(base["master_seed"]))
    summary = json.loads(files["sweep_summary.json"])
    for est in estimators:
        print(f"estimator={est} minimax_ratio={summary['estimators'][est]['minimax_ratio']:.6g}")
    print(f"outputs={args.out}")
    return 0


def _cmd_diagnose_design(args) -> int:
    config = {
        "n": args.n,
        "p": args.p,
        "k": args.k,
        "eps": args.eps,
        "restarts": args.restarts,
        "seed": args.seed,
    }
    if args.k >= args.p:
        raise _UsageError(f"need k < p, got k={args.k}, p={args.p}")
    started = _utc_now()
    files, passed = _produce_diagnose(config)
    payload = json.loads(files["diagnose.json"])
    print(json.dumps(payload["report"], sort_keys=True, indent=2))
    if args.out is not None:
        _require_out_dir(args.out)
        _write_run(args.out, "diagnose-design", config, files, started, args.seed)
    return 0 if passed else 2


def _cmd_check_lemma(args) -> int:
    if args.lemma in _PROOF_DRIVERS:
        if args.config is None:
            raise _UsageError(f"--lemma {args.lemma} needs --config with the instance settings")
        settings = lemma_config_from_mapping(load_kv(args.config))
        config = {"lemma": args.lemma, "reps": args.reps, "seed": args.seed, "settings": settings}
    elif args.lemma in REGISTRY:
        grid = None
        if args.grid is not None:
            with open(args.grid, encoding="utf-8") as fh:
                grid = _parse_grid_text(fh.read())
        config = {"lemma": args.lemma, "reps": args.reps, "seed": args.seed, "grid": grid}
    else:
        known = ", ".join(list(_PROOF_DRIVERS) + sorted(REGISTRY))
        raise _UsageError(f"unknown lemma {args.lemma!r}; known: {known}")
    started = _utc_now()
    files, passed = _produce_check_lemma(config)
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
    if args.out is not None:
        _require_out_dir(args.out)
        _write_run(args.out, "check-lemma", config, files, started, args.seed)
    return 0 if passed else 2


def _cmd_replay(args) -> int:
    try:
        with open(args.manifest, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read manifest: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _UsageError(f"manifest is not valid JSON: {exc}") from None
    if manifest.get("format") != _MANIFEST_MAGIC:
        raise _UsageError(f"not a run manifest: {args.manifest}")
    if manifest.get("version") != __version__:
        print(
            f"warning: manifest version {manifest.get('version')} != {__version__}; comparing anyway",
            file=sys.stderr,
        )

    subcommand = manifest["subcommand"]
    producer = _PRODUCERS.get(subcommand)
    if producer is None:
        raise _UsageError(f"manifest names unknown subcommand {subcommand!r}")

    files, _ = producer(manifest["config"])
    base = os.path.dirname(os.path.abspath(args.manifest))
    mismatched = []
    for name in manifest["outputs"]:
        path = os.path.join(base, name)
        if not os.path.exists(path):
            print(f"missing output file: {path}", file=sys.stderr)
            return 1
        with open(path, "rb") as fh:
            on_disk = fh.read()
        if files.get(name) != on_disk:
            mismatched.append(name)
    for name in mismatched:
        print(f"mismatch: {name}")
    print(f"replay: {len(manifest['outputs']) - len(mismatched)}/{len(manifest['outputs'])} files identical")
    return 2 if mismatched else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparse-minimax", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    sim = sub.add_parser("simulate-risk", help="run one risk experiment from a config file")
    sim.add_argument("--config", required=True, help="flat key = value experiment config")
    sim.add_argument("--seed", type=int, default=None, help="override master_seed from the config")
    sim.add_argument("--out", required=True, help="existing directory for CSV/TSV/JSON and the manifest")
    sim.add_argument("--threads", type=int, default=None, help="worker threads (results never depend on this)")
    sim.set_defaults(handler=_cmd_simulate_risk)

    swp = sub.add_parser("sweep", help="run the same experiment for several estimators, sharing seeds")
    swp.add_argument("--config", required=True)
    swp.add_argument("--estimators", default="lasso,oracle", help="comma-separated estimator ids")
    swp.add_argument("--seed", type=int, default=None)
    swp.add_argument("--out", required=True)
    swp.add_argument("--threads", type=int, default=None)
    swp.set_defaults(handler=_cmd_sweep)

    diag = sub.add_parser("diagnose-design", help="check the conditioning event on a fresh Gaussian design")
    diag.add_argument("--n", type=int, required=True)
    diag.add_argument("--p", type=int, required=True)
    diag.add_argument("--k", type=int, required=True)
    diag.add_argument("--eps", type=float, required=True)
    diag.add_argument("--restarts", type=int, default=64)
    diag.add_argument("--seed", type=int, default=0)
    diag.add_argument("--out", default=None, help="optional directory for the JSON report and manifest")
    diag.set_defaults(handler=_cmd_diagnose_design)

    chk = sub.add_parser("check-lemma", help="Monte Carlo check of one registered inequality")
    chk.add_argument("--lemma", required=True, help=f"one of {', '.join(_PROOF_DRIVERS)} or a tail registry id")
    chk.add_argument("--reps", type=int, default=10_000)
    chk.add_argument("--seed", type=int, default=0)
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
    except (_UsageError, ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
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
