"""End-to-end and per-layer benchmark of sparse-minimax.

Run from the repository root:

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Every workload is a closed loop in one process: it drives the user-facing
entry point ``sparse_minimax.cli.run`` with config files made from
``--seed`` and repeats a fixed *round* of commands until ``--seconds`` would
be exceeded by the next round (at least one round always runs).

Workloads (why each was chosen):

* ``desk-sweep``: ``sweep --estimators oracle,lasso,slope`` at the desk size
  of the paper's experiment (n=4000, p=8000, k=8, six amplitudes, 2
  replicates), once with ``--threads 1`` and once with the usable CPUs. It
  is the only workload that repeats work per amplitude, and the two thread
  counts expose contention (the SLOPE prox holds the GIL).
* ``proof-checks``: ``check-lemma --lemma gap`` at the desk size,
  ``diagnose-design`` at n=p=2000 with 8 restarts, which takes the
  matrix-free cone-descent path, and every tail-registry row through
  ``check-lemma`` on its default grid (vector rows 10000 reps, matrix rows
  100). The gap check makes one cold fit per fresh design and has no
  amplitude loop, so a cache kept across amplitudes shows no gain here; the
  registry rows are small-array Monte Carlo with no estimator and no large
  design, so they catch per-call overhead that the desk sweep hides. Each
  part's time is printed on its own (``gap_rep_s``, ``diagnose_s``,
  ``registry_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are ``setup_s`` (median over fresh interpreters of the package import
plus a tiny warm-up), ``round_s`` (the sum over a round's commands of each
command's median wall seconds across rounds) and ``peak_rss_mb``. The
per-workload timings above it (``oracle_rep_s.t1`` ... ``slope_rep_s.tmax``,
``gap_rep_s``, ``diagnose_s``, ``registry_s``) and ``fail_frac`` are printed
for reading only, because the result line carries the same metrics for every
workload. With ``--trace 1`` the first round runs untraced and the rest
traced, and the metrics are per-layer self times, call counts and work
counts per traced round (see ``tracing.py``), plus the tracing overhead.

An operation is a fit (replicate x amplitude x estimator), a gap-check
replicate, a diagnose call or a registry row. It fails on an exception, an
unexpected exit code, a flagged fit or a failed output check. The checks:
desk-sweep data files are byte-identical at 1 thread and at the usable
CPUs, and nothing is flagged; the gap check and every registry row exit 0
and pass; ``diagnose-design`` exits 0 or 2 with ``theta_upper`` at most the
design's smallest column norm over sqrt(n); every round reproduces the bytes
of the first; and for ``DEFAULT_SEED`` the data files match the SHA-256
fingerprints recorded for the package version in ``fingerprints.json``
(``--record-fingerprints`` writes them for the current version).

``HOLDOUT_SEED`` is used only to show that a claimed gain also holds on a
seed the change was not tuned on.

Run outputs go to ``.perfbench_out/`` under the repository root; the work
directories are removed at the end and one result file per run is kept.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
FINGERPRINTS = HERE / "fingerprints.json"

DEFAULT_SEED = 1
HOLDOUT_SEED = 7919

SETUP_SAMPLES = 5
DESK = {"n": 4000, "p": 8000, "k": 8, "sigma": 1.0, "eps": 0.1}
AMPLITUDES = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
ESTIMATORS = ("oracle", "lasso", "slope")
DESK_REPS = 2  # fixed, so the output bytes do not depend on the machine
GAP_REPS = 4
DIAGNOSE = {"n": 2000, "p": 2000, "k": 8, "eps": 0.1, "restarts": 8}
MATRIX_ROWS = ("gauss_sv", "resolvent_sv", "sup_xtz", "sre_event")
REGISTRY_ROWS = (
    "chi2_lower", "gauss_max", "order_mean", "order_conc", "topk_avg",
    "median_event", "gauss_sv", "resolvent_sv", "sup_xtz", "sre_event",
)
WORKLOADS = ("desk-sweep", "proof-checks")

# ROADMAP "Current state" layer table, desk size, 1 thread, seconds per call
ROADMAP_LAYERS = {
    "gen_design per call": 0.77,
    "spectral_bound per replicate": 1.50,
    "col_sumsq per call": 0.044,
    "two xt_dot products": 0.026,
    "cd_sweeps per lasso fit": 0.005,
    "pava per slope fit": 0.144,
    "lasso_fit per fit": 0.077,
    "slope_fit per fit": 0.217,
}
TIMING_BOUND = 0.25  # the round_s bound in BENCHMARK.json


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def kv_text(mapping: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in mapping.items())


def data_hashes(directory: Path) -> dict[str, str]:
    """SHA-256 of every data file a command wrote; manifest.json carries
    timestamps and is left out."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file() and path.name != "manifest.json"
    }


# --- machine block -------------------------------------------------------------


def _cgroup_cpu_quota():
    for path, parse in (
        ("/sys/fs/cgroup/cpu.max", lambda t: t.split()),
        ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", lambda t: [t.strip(), None]),
    ):
        try:
            with open(path, encoding="ascii") as fh:
                quota, period = parse(fh.read())
        except OSError:
            continue
        if quota in ("max", "-1"):
            return None
        if period is None:
            try:
                with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us", encoding="ascii") as fh:
                    period = fh.read().strip()
            except OSError:
                return None
        return int(quota) / int(period)
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def machine_block(version: str) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # the config layout differs between numpy releases
        blas = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "cgroup_cpu_quota": _cgroup_cpu_quota(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "blas": blas,
        "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sparse_minimax": version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
    }


# --- set-up ----------------------------------------------------------------------


def run_cli(cli, argv: list[str]) -> tuple[int | None, float, str, str]:
    """(exit code, wall seconds, stdout, stderr); exit code None when the
    command raised instead of returning."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def warm_up(cli, workdir: Path) -> None:
    """Tiny calls through every command path the workloads use, so lazy
    imports, BLAS start-up and thread-pool creation are paid here."""
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "tiny.cfg"
    cfg.write_text(kv_text({"n": 60, "p": 120, "k": 2, "sigma": 1.0, "eps": 0.1,
                            "amplitudes": "1.0, 4.0", "reps": 2, "master_seed": 3}))
    for threads in sorted({1, usable_cpus()}):
        out = workdir / f"sweep{threads}"
        out.mkdir(exist_ok=True)
        run_cli(cli, ["sweep", "--config", str(cfg), "--estimators", ",".join(ESTIMATORS),
                      "--threads", str(threads), "--out", str(out)])
    run_cli(cli, ["check-lemma", "--lemma", "gap", "--config", str(cfg), "--reps", "1"])
    run_cli(cli, ["diagnose-design", "--n", "40", "--p", "30", "--k", "2", "--eps", "0.1", "--restarts", "2"])
    run_cli(cli, ["check-lemma", "--lemma", "chi2_lower", "--reps", "100"])


def setup_probe(workdir: str) -> None:
    """Child-process body for one setup_s sample: import plus warm-up."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from sparse_minimax import cli

    warm_up(cli, Path(workdir))
    print(repr(time.perf_counter() - t0))


def measure_setup(workdir: Path) -> list[float]:
    code = "import sys; sys.path.insert(0, sys.argv[1]); import run; run.setup_probe(sys.argv[2])"
    samples = []
    for i in range(SETUP_SAMPLES):
        probe_dir = workdir / f"setup{i}"
        done = subprocess.run(
            [sys.executable, "-c", code, str(HERE), str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# --- workloads -------------------------------------------------------------------


class Command(NamedTuple):
    """One CLI call of a round: its label, arguments, operation count and
    the exit codes that count as success."""

    label: str
    argv: list[str]
    ops: int
    ok_codes: tuple[int, ...] = (0,)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def check(self, cmd: Command, stdout: str, out_dir: Path) -> tuple[list[str], int]:
        """(problems, flagged fits) for one command's output."""
        return [], 0

    def cross_check(self, hashes: dict[str, dict[str, str]]) -> dict[str, list[str]]:
        """Problems found by comparing the commands of one round."""
        return {}


def _report_passed(stdout: str) -> list[str]:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return ["report is not JSON"]
    return [] if report.get("passed") is True else [f"report not passed: {report}"]


class DeskSweep(Workload):
    name = "desk-sweep"

    def prepare(self):
        self.cfg = self.workdir / "desk.cfg"
        self.cfg.write_text(kv_text({**DESK, "amplitudes": ", ".join(map(str, AMPLITUDES)),
                                     "reps": DESK_REPS, "master_seed": self.seed}))

    def commands(self):
        fits = len(ESTIMATORS) * DESK_REPS * len(AMPLITUDES)
        return [
            Command(label, ["sweep", "--config", str(self.cfg), "--estimators", ",".join(ESTIMATORS),
                            "--threads", str(threads)], fits)
            for label, threads in (("t1", 1), ("tmax", usable_cpus()))
        ]

    def check(self, cmd, stdout, out_dir):
        summary = json.loads((out_dir / "sweep_summary.json").read_text())
        flagged = 0
        problems = []
        for est in ESTIMATORS:
            per_est = json.loads((out_dir / f"summary_{est}.json").read_text())
            flagged += per_est["flagged"]
            if summary["estimators"][est]["flagged"] != per_est["flagged"]:
                problems.append(f"{est}: sweep_summary and summary disagree on flagged")
            if not math.isfinite(per_est["minimax_ratio"]):
                problems.append(f"{est}: minimax_ratio is not finite")
        return problems, flagged

    def cross_check(self, hashes):
        if hashes.get("t1") != hashes.get("tmax"):
            return {"tmax": ["data files differ between 1 thread and the usable CPUs"]}
        return {}


class ProofChecks(Workload):
    name = "proof-checks"

    def prepare(self):
        import numpy as np
        from sparse_minimax import SeedSpec, gen_design

        self.cfg = self.workdir / "gap.cfg"
        self.cfg.write_text(kv_text(DESK))
        d = DIAGNOSE
        x = gen_design(d["n"], d["p"], SeedSpec(self.seed)).entries
        self.theta_cap = float(np.sqrt((x * x).sum(axis=0)).min()) / math.sqrt(d["n"])

    def commands(self):
        d = DIAGNOSE
        return [
            Command("gap", ["check-lemma", "--lemma", "gap", "--config", str(self.cfg),
                            "--reps", str(GAP_REPS), "--seed", str(self.seed)], GAP_REPS),
            Command("diagnose", ["diagnose-design", "--n", str(d["n"]), "--p", str(d["p"]),
                                 "--k", str(d["k"]), "--eps", str(d["eps"]),
                                 "--restarts", str(d["restarts"]), "--seed", str(self.seed)],
                    1, ok_codes=(0, 2)),
        ] + [
            Command(row, ["check-lemma", "--lemma", row, "--reps",
                          str(100 if row in MATRIX_ROWS else 10_000), "--seed", str(self.seed)], 1)
            for row in REGISTRY_ROWS
        ]

    def check(self, cmd, stdout, out_dir):
        if cmd.label == "gap":
            return _report_passed(stdout), 0
        if cmd.label == "diagnose":
            theta = json.loads(stdout)["theta_upper"]
            # descent starts at the smallest-norm column and never increases
            # the objective, so a larger value is a bug
            if not theta <= self.theta_cap * (1.0 + 1e-12):
                return [f"theta_upper {theta!r} exceeds the smallest column norm bound {self.theta_cap!r}"], 0
            return [], 0
        report = json.loads((out_dir / f"lemma_{cmd.label}.json").read_text())["report"]
        return ([] if report["passed"] else [f"{cmd.label}: registry row failed"]), 0


WORKLOAD_CLASSES = {cls.name: cls for cls in (DeskSweep, ProofChecks)}


# --- the measured loop -------------------------------------------------------------


class RiskFilesTimer:
    """Wall time of each estimator inside a sweep, taken at the boundary
    ``cli._risk_files`` (one call per estimator), so the per-estimator
    replicate times need no tracing."""

    def __init__(self, cli):
        self.cli = cli
        self.original = cli._risk_files
        self.records: list[tuple[str, str, float]] = []
        self.phase = ""

    def __enter__(self):
        original = self.original

        def timed(mapping, threads):
            t0 = time.perf_counter()
            result = original(mapping, threads)
            self.records.append((self.phase, mapping["estimator_id"], time.perf_counter() - t0))
            return result

        self.cli._risk_files = timed
        return self

    def __exit__(self, *exc):
        self.cli._risk_files = self.original


def run_round(cli, workload: Workload, commands, round_dir: Path, tracer, timer):
    """Run every command once; returns (wall per label, problems per label,
    flagged per label, data hashes per label)."""
    walls, problems, flagged, hashes = {}, {}, {}, {}
    for cmd in commands:
        out_dir = round_dir / cmd.label
        out_dir.mkdir(parents=True)
        if tracer is not None:
            tracer.phase = cmd.label
        timer.phase = cmd.label
        rc, wall, stdout, stderr = run_cli(cli, cmd.argv + ["--out", str(out_dir)])
        walls[cmd.label] = wall
        flagged[cmd.label] = 0
        if rc not in cmd.ok_codes:
            problems[cmd.label] = [f"exit code {rc}: {stderr.strip()[-400:]}"]
            continue
        try:
            found, flagged[cmd.label] = workload.check(cmd, stdout, out_dir)
        except (OSError, KeyError, ValueError) as exc:
            found = [f"output check raised {exc!r}"]
        problems[cmd.label] = found
        hashes[cmd.label] = data_hashes(out_dir)
    for label, found in workload.cross_check(hashes).items():
        problems[label] = problems.get(label, []) + found
    shutil.rmtree(round_dir)
    return walls, problems, flagged, hashes


def load_fingerprints() -> dict:
    try:
        return json.loads(FINGERPRINTS.read_text())
    except FileNotFoundError:
        return {}


def median(values):
    return statistics.median(values) if values else 0.0


def round_seconds(rounds: list[dict]) -> float:
    """Sum over the commands of a round of each command's median wall time
    across rounds; a slow spell that hits one command in one round drops out."""
    labels = rounds[0]["walls"]
    return sum(median([r["walls"][label] for r in rounds]) for label in labels)


def workload_timings(workload: Workload, rounds: list[dict], timer: RiskFilesTimer) -> dict[str, tuple[float, str]]:
    """The per-workload timings the benchmark prints for reading."""
    out = {}
    if workload.name == "desk-sweep":
        for phase in ("t1", "tmax"):
            for est in ESTIMATORS:
                vals = [w / DESK_REPS for p, e, w in timer.records if p == phase and e == est]
                out[f"{est}_rep_s.{phase}"] = (median(vals), "s")
    else:
        out["gap_rep_s"] = (median([r["walls"]["gap"] / GAP_REPS for r in rounds]), "s")
        out["diagnose_s"] = (median([r["walls"]["diagnose"] for r in rounds]), "s")
        out["registry_s"] = (sum(median([r["walls"][row] for r in rounds]) for row in REGISTRY_ROWS), "s")
    return out


def layer_report(tracer, traced_rounds: int, layer_names) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced round and the printable table."""
    import tracing

    selfs = tracing.self_times(tracer.spans)
    agg: dict[str, dict] = {}
    for sid, _parent, name, t0, t1, _thread, _phase, info in tracer.spans:
        a = agg.setdefault(name, {"calls": 0, "self": 0.0, "dur": [], "info": []})
        a["calls"] += 1
        a["self"] += selfs[sid]
        a["dur"].append(t1 - t0)
        a["info"].append(info)
    per = 1.0 / traced_rounds

    def get(name):
        return agg.get(name, {"calls": 0, "self": 0.0, "dur": [], "info": []})

    def info_of(name):  # None marks a call that raised
        return [i for i in get(name)["info"] if i is not None]

    metrics = {}
    for name in layer_names:
        a = get(name)
        metrics[f"{name}.self_s"] = a["self"] * per
        metrics[f"{name}.calls"] = a["calls"] * per
    metrics["kernels.xt_dot.bytes_computed"] = sum(info_of("kernels.xt_dot")) * per
    metrics["kernels.cd_sweeps.sweeps"] = sum(info_of("kernels.cd_sweeps")) * per
    # ratios are successes over calls, 0 when the layer did not run
    for fit in ("estimators.lasso_fit", "estimators.slope_fit"):
        info = info_of(fit)
        metrics[f"{fit}.iterations"] = sum(i for i, _ in info) * per
        metrics[f"{fit}.converged_ratio"] = sum(c for _, c in info) / max(get(fit)["calls"], 1)
    holds = info_of("diagnostics.event_a_check")
    metrics["diagnostics.event_a_check.holds_ratio"] = sum(holds) / max(len(holds), 1)
    metrics["diagnostics.project_cone.calls"] = tracer.counts.get("diagnostics.project_cone", 0) * per
    replicate = get("risk.replicate")
    metrics["risk.replicate.busy_s"] = sum(replicate["dur"]) * per
    metrics["risk.replicate.calls"] = replicate["calls"] * per
    # Thread-busy time under contention includes waiting for the GIL, so the
    # work reference is the 1-thread busy time of the same replicates.
    work = sum(t1 - t0 for _s, _p, n, t0, t1, _t, ph, _i in tracer.spans
               if n == "risk.replicate" and ph == "t1")
    capacity = 0.0
    for _s, _p, n, t0, t1, _t, ph, info in tracer.spans:
        if n == "risk.empirical_risk" and ph == "tmax":
            threads, reps = info
            capacity += (t1 - t0) * min(threads or os.cpu_count() or 1, reps)
    metrics["risk.parallel_eff"] = work / capacity if capacity else 0.0
    for row in REGISTRY_ROWS:
        metrics[f"tails.{row}.self_s"] = get(f"tails.{row}")["self"] * per
    metrics["tails.rows_failed"] = sum(sum(info_of(f"tails.{row}")) for row in REGISTRY_ROWS) * per
    metrics["cli.write.bytes"] = sum(info_of("cli.write")) * per

    lines = [f"{'layer':34s} {'calls':>8s} {'self_s':>10s} {'p50_ms':>10s}  tail (samples)"]
    for name in sorted(agg):
        a = agg[name]
        line = f"{name:34s} {a['calls'] * per:8.1f} {a['self'] * per:10.4f}"
        if a["calls"] >= 10:
            line += f" {1e3 * statistics.median(a['dur']):10.3f}"
            tail = tracing.tail_percentile(a["dur"])
            if tail is not None:
                line += f"  p{tail[0]:g}={1e3 * tail[1]:.3f}ms"
            line += f" ({a['calls']})"
        lines.append(line)
    return metrics, lines


def roadmap_comparison(tracer) -> list[str]:
    """desk-sweep 1-thread layer times against the ROADMAP layer table."""
    spans = [s for s in tracer.spans if s[6] == "t1"]
    by_id = {s[0]: s for s in spans}

    def durations(name):
        return [s[4] - s[3] for s in spans if s[2] == name]

    def under(name, ancestor):
        total = 0.0
        for s in spans:
            if s[2] != name:
                continue
            parent = s[1]
            while parent >= 0 and parent in by_id and by_id[parent][2] != ancestor:
                parent = by_id[parent][1]
            if parent in by_id:
                total += s[4] - s[3]
        return total

    lasso = durations("estimators.lasso_fit")
    slope = durations("estimators.slope_fit")
    measured = {
        "gen_design per call": median(durations("design.gen_design")),
        "spectral_bound per replicate": median(durations("estimators.spectral_bound")),
        "col_sumsq per call": median(durations("kernels.col_sumsq")),
        "two xt_dot products": 2.0 * median(durations("kernels.xt_dot")),
        "cd_sweeps per lasso fit": under("kernels.cd_sweeps", "estimators.lasso_fit") / max(len(lasso), 1),
        "pava per slope fit": under("kernels.pava", "estimators.slope_fit") / max(len(slope), 1),
        "lasso_fit per fit": sum(lasso) / max(len(lasso), 1),
        "slope_fit per fit": sum(slope) / max(len(slope), 1),
    }
    lines = ["ROADMAP layer table vs this run (desk-sweep, 1 thread; per call: median, per fit: mean):"]
    for key, ref in ROADMAP_LAYERS.items():
        got = measured[key]
        ratio = got / ref
        verdict = "agrees" if abs(ratio - 1.0) <= TIMING_BOUND else "DISAGREES"
        lines.append(f"  {key:30s} roadmap {ref:8.4f} s  measured {got:8.4f} s  ratio {ratio:6.3f}  {verdict}")
    return lines


def run_workload(args, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import sparse_minimax
    from sparse_minimax import cli

    setup = [] if args.trace else measure_setup(work)
    warm_up(cli, work / "warm")
    machine = machine_block(sparse_minimax.__version__)

    workload = WORKLOAD_CLASSES[args.workload](args.seed, work)
    workload.prepare()
    commands = workload.commands()
    version = sparse_minimax.__version__
    fingerprints = load_fingerprints()
    expected = fingerprints.get(version, {}).get(workload.name) if args.seed == DEFAULT_SEED else None

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    rounds: list[dict] = []
    first_hashes = None
    attempted = failed = 0
    problems_seen: list[str] = []
    with RiskFilesTimer(cli) as timer:
        start = time.perf_counter()
        while True:
            index = len(rounds)
            # traced and untraced rounds alternate, so the overhead estimate
            # compares rounds that ran close together
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.install()
            try:
                walls, problems, flagged, hashes = run_round(
                    cli, workload, commands, work / f"round{index}", tracer if traced else None, timer)
            finally:
                if traced:
                    tracer.uninstall()
            flat = {f"{label}/{name}": digest for label, files in hashes.items() for name, digest in files.items()}
            if first_hashes is None:
                first_hashes = flat
            elif flat != first_hashes:
                differing = sorted(k for k in set(flat) | set(first_hashes) if flat.get(k) != first_hashes.get(k))
                for key in differing:
                    problems.setdefault(key.split("/")[0], []).append(f"{key} differs from round 0")
            if expected is not None:
                for key in sorted(set(expected) | set(flat)):
                    if expected.get(key) != flat.get(key):
                        problems.setdefault(key.split("/")[0], []).append(
                            f"{key} does not match the fingerprint for version {version}")
            for cmd in commands:
                attempted += cmd.ops
                found = problems.get(cmd.label, [])
                failed += cmd.ops if found else min(flagged.get(cmd.label, 0), cmd.ops)
                problems_seen.extend(f"round {index} {cmd.label}: {p}" for p in found)
                if flagged.get(cmd.label):
                    problems_seen.append(f"round {index} {cmd.label}: {flagged[cmd.label]} flagged fits")
            rounds.append({"walls": walls, "wall": sum(walls.values()), "traced": traced})
            elapsed = time.perf_counter() - start
            typical = median([r["wall"] for r in rounds])
            if elapsed + typical > args.seconds and (not args.trace or len(rounds) >= 2):
                break

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "rounds": rounds,
        "setup_samples": setup,
        "problems": problems_seen,
        "fingerprint_checked": expected is not None,
        "record": flat if args.record_fingerprints else None,
    }
    untraced = [r["wall"] for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r["wall"] for r in rounds if r["traced"]]
        import tracing

        names = sorted({name for name, _sites, _extra in tracing.LAYERS if name != "tails"}
                       - {"risk.empirical_risk", "risk.replicate"})
        metrics, table = layer_report(tracer, len(traced), names)
        metrics["trace.overhead_s"] = median(traced) - median(untraced)
        result["layer_table"] = table
        result["missing_sites"] = tracer.missing
        result["spans"] = tracer.spans
        if workload.name == "desk-sweep":
            result["roadmap"] = roadmap_comparison(tracer)
        result["metrics"] = {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}
    else:
        info = workload_timings(workload, rounds, timer)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        info["setup_s"] = (median(setup), "s")
        info["peak_rss_mb"] = (peak, "MB")
        info["fail_frac"] = (failed / attempted, "failed/attempted")
        result["timings"] = info
        result["metrics"] = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "round_s": {"value": round_seconds([r for r in rounds if not r["traced"]]), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    result["attempted"] = attempted
    result["failed"] = failed
    return result


def _layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    if name.startswith("risk.parallel_eff"):
        return "ratio"
    return {"self_s": "s", "busy_s": "s", "overhead_s": "s", "bytes_computed": "bytes", "bytes": "bytes",
            "converged_ratio": "ratio", "holds_ratio": "ratio"}.get(stat, "count")


def print_result(result: dict) -> None:
    machine = result["machine"]
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']} "
          f"rounds {len(result['rounds'])}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for i, r in enumerate(result["rounds"]):
        walls = " ".join(f"{k}={v:.3f}s" for k, v in r["walls"].items())
        print(f"round {i}{' traced' if r['traced'] else ''}: {r['wall']:.3f}s  {walls}")
    for line in result.get("layer_table", []):
        print(line)
    for line in result.get("roadmap", []):
        print(line)
    if result.get("missing_sites"):
        print("not found in this version: " + ", ".join(result["missing_sites"]))
    for name, (value, unit) in result.get("timings", {}).items():
        print(f"metric {name} {value:.6g} {unit}")
    for problem in result["problems"]:
        print("problem " + problem)
    if not result["fingerprint_checked"]:
        print("fingerprints not checked (only recorded for the default seed and this version)")


def record_fingerprints(result: dict) -> None:
    import sparse_minimax

    data = load_fingerprints()
    data.setdefault(sparse_minimax.__version__, {})[result["workload"]] = result["record"]
    FINGERPRINTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    attempted = failed = 0
    metrics = {}
    correct = True
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        correct = correct and last["correct"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true",
                        help="write this run's data-file hashes for the current package version")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "sparse_minimax" / "__init__.py").is_file():
        print(f"error: no sparse_minimax package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.record_fingerprints and args.seed != DEFAULT_SEED:
        parser.error(f"fingerprints are recorded for the default seed {DEFAULT_SEED} only")

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        result = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, default=str) + "\n")
    print_result(result)
    if args.record_fingerprints:
        record_fingerprints(result)
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
