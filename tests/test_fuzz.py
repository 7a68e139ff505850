"""Mutated manifests and argument lists end in an exit code, never a
traceback: ``run`` returns 0, 1 or 2 and prints at most one ``error:`` line,
and a manifest or argv that is refused for a wrong type or a missing key is
refused before any draw.

The runs are tiny, thread counts stay at 17 or below and the examples are
bounded, so the module takes seconds."""

import contextlib
import copy
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_minimax import cli, risk, rng
from sparse_minimax.cli import run

EXPERIMENT = "n = 12\np = 6\nk = 1\nsigma = 1.0\neps = 0.5\namplitudes = 2.0\nreps = 1\nmaster_seed = 3\n"
LEMMA = "n = 40\np = 20\nk = 2\nsigma = 1.0\neps = 0.1\n"
GRID = "p = 20, u = 0.5\n"

# a valid tiny run of every subcommand; best subset is the estimator alone,
# so a response too large for it is within reach
ARGV = {
    "simulate-risk": ["simulate-risk", "--config", "{mle}", "--out", "{out}", "--threads", "2"],
    "sweep": ["sweep", "--config", "{experiment}", "--estimators", "oracle,lasso,slope,mle,aggregated", "--out", "{out}", "--threads", "2"],
    "diagnose-design": ["diagnose-design", "--n", "40", "--p", "20", "--k", "2", "--eps", "2.0", "--restarts", "2", "--out", "{out}"],
    "gap": ["check-lemma", "--lemma", "gap", "--config", "{lemma}", "--reps", "2", "--out", "{out}"],
    "gauss_max": ["check-lemma", "--lemma", "gauss_max", "--grid", "{grid}", "--reps", "100", "--out", "{out}"],
}

HUGE_INTEGERS = [-1, 0, -(2**63), 2**31, 2**63, 10**30]
HUGE_REALS = [1e300, -1e300, 1e160, 1.7976931348623157e308]
OTHER_TYPES = [None, True, "x", "1", 1, 1.5, [], {}]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each run's directory, argv and manifest."""
    base = tmp_path_factory.mktemp("fuzz")
    files = {"experiment": EXPERIMENT, "mle": EXPERIMENT + "estimator_id = mle\n", "lemma": LEMMA, "grid": GRID}
    paths = {}
    for name, text in files.items():
        paths[name] = base / f"{name}.txt"
        paths[name].write_text(text)
    out = {}
    for name, argv in ARGV.items():
        paths["out"] = base / name
        paths["out"].mkdir()
        argv = [paths[a[1:-1]].as_posix() if a.startswith("{") else a for a in argv]
        with _quiet():
            assert run(argv) in (0, 2), name
        out[name] = (paths["out"], argv, json.loads((paths["out"] / "manifest.json").read_text()))
    return out


@contextlib.contextmanager
def _quiet(err=None):
    """Standard output, standard error (into err) and warnings silenced."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err or io.StringIO()):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            yield


def _run(argv) -> tuple[int, str, list]:
    """run(argv)'s exit code, its standard error and the draws it made."""
    drawn = []

    def recording(real):
        def wrapper(*args, **kwargs):
            drawn.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, _quiet(err):
        for module in (cli, risk):
            mp.setattr(module, "gen_design", recording(module.gen_design))
        mp.setattr(rng.SeedSpec, "generator", recording(rng.SeedSpec.generator))
        code = run(argv)
    return code, err.getvalue(), drawn


def _check(code: int, err: str, drawn: list, refused_before_draws: bool) -> None:
    assert code in (0, 1, 2)
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, err
    if code == 1 and refused_before_draws:
        assert drawn == [], err


def _paths(value, path=()):
    """The path of every value nested in value, value itself included."""
    yield path
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _paths(inner, (*path, key))
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            yield from _paths(inner, (*path, i))


def _other_value(value, draw):
    """A value of the same JSON type as value but extreme: huge or negative
    integers and huge reals, as numbers or as experiment text."""
    if isinstance(value, bool) or value is None:
        return draw(st.sampled_from(OTHER_TYPES))
    if isinstance(value, int):
        return draw(st.sampled_from(HUGE_INTEGERS))
    if isinstance(value, float):
        return draw(st.sampled_from(HUGE_REALS + HUGE_INTEGERS))
    if isinstance(value, str):
        return str(draw(st.sampled_from(HUGE_REALS + HUGE_INTEGERS)))
    return draw(st.sampled_from(OTHER_TYPES))


def _write_manifest(directory, manifest) -> list[str]:
    path = directory / "mutated.json"
    path.write_text(json.dumps(manifest))
    return ["replay", str(path)]


@pytest.mark.parametrize("name", list(ARGV))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_mutated_manifest_ends_in_an_exit_code(runs, name, data):
    directory, _, manifest = runs[name]
    manifest = copy.deepcopy(manifest)
    path = data.draw(st.sampled_from(list(_paths(manifest))), label="path")
    mutation = data.draw(st.sampled_from(["delete", "swap", "nest", "value"]), label="mutation")
    if not path:
        manifest = [manifest] if mutation == "nest" else data.draw(st.sampled_from(OTHER_TYPES))
    else:
        *head, last = path
        parent = manifest
        for key in head:
            parent = parent[key]
        if mutation == "delete":
            del parent[last]
        elif mutation == "swap":
            parent[last] = data.draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(parent[last])]))
        elif mutation == "nest":
            parent[last] = data.draw(st.sampled_from([[parent[last]], {"value": parent[last]}]))
        else:
            parent[last] = _other_value(parent[last], data.draw)
    code, err, drawn = _run(_write_manifest(directory, manifest))
    _check(code, err, drawn, refused_before_draws=mutation != "value")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(["simulate-risk", "sweep"]),
    key=st.sampled_from(["sigma", "eps", "slope_q", "noise_scale", "amplitudes"]),
    value=st.sampled_from(HUGE_REALS),
)
def test_a_huge_real_in_experiment_text_ends_in_an_exit_code(runs, name, key, value):
    directory, _, manifest = runs[name]
    manifest = copy.deepcopy(manifest)
    manifest["config"]["experiment"][key] = repr(value)
    code, err, drawn = _run(_write_manifest(directory, manifest))
    # a huge sigma or amplitude is negative or overflows the response
    # energy: either way it is refused before any draw
    refused = key in ("sigma", "amplitudes")
    assert code == 1 or not refused, err
    _check(code, err, drawn, refused_before_draws=refused)


# a replacement token: numbers that parse but are extreme, and texts that
# do not parse as any option's type
NUMBER_TOKENS = ["-1", "0", "1e300", "-1e300", "nan", "inf", "2.5", str(2**31), str(2**63), str(10**30)]
TEXT_TOKENS = ["x", "", "--", "--frobnicate"]


@pytest.mark.parametrize("name", [*ARGV, "replay"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_mutated_argv_ends_in_an_exit_code(runs, name, data):
    if name == "replay":
        directory, _, _ = runs["sweep"]
        argv = ["replay", str(directory / "manifest.json")]
    else:
        directory, argv, _ = runs[name]
        argv = list(argv)
    at = data.draw(st.integers(0, len(argv) - 1), label="at")
    mutation = data.draw(st.sampled_from(["delete", "text", "number", "repeat"]), label="mutation")
    if mutation == "delete":
        del argv[at]
    elif mutation == "text":
        argv[at] = data.draw(st.sampled_from(TEXT_TOKENS))
    elif mutation == "repeat":
        argv.insert(at, argv[at])
    elif at > 0 and argv[at - 1] == "--threads":
        # never ask for more than 17 threads
        argv[at] = str(data.draw(st.integers(-2, 17)))
    else:
        argv[at] = data.draw(st.sampled_from(NUMBER_TOKENS))
    code, err, drawn = _run(argv)
    _check(code, err, drawn, refused_before_draws=mutation in ("delete", "text"))
