"""Flat ``key = value`` config and grid files and their typed interpretations.

The format is a diff-friendly line protocol: one assignment per line,
``#`` comments, no nesting, no quoting. Values keep their exact text until
a schema coerces them, so configs round-trip byte-for-byte through
manifests. ``FIELD_KINDS`` states the kind of every field once, and each
command's fields and defaults are stated once below it; the readers, the
writer and the cli's options and manifest checks derive from them.
"""

from __future__ import annotations

import dataclasses
import math

from .risk import ExperimentConfig, check_response_energy


def _lines(text: str):
    """(number, text) of each line that is not blank once its '#' comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _assign(out: dict[str, str], where: str, text: str) -> None:
    """Add one ``key = value`` to out. A text without '=', an empty key or
    a repeated key (ambiguous in a manifest, so rejected rather than
    resolved) raises ValueError naming where."""
    if "=" not in text:
        raise ValueError(f"{where}: expected 'key = value', got {text.strip()!r}")
    key, value = (part.strip() for part in text.split("=", 1))
    if not key:
        raise ValueError(f"{where}: empty key")
    if key in out:
        raise ValueError(f"{where}: duplicate key {key!r}")
    out[key] = value


def parse_kv_text(text: str) -> dict[str, str]:
    """Flat assignments, one per line; blank lines and '#' comments are skipped."""
    out: dict[str, str] = {}
    for lineno, line in _lines(text):
        _assign(out, f"line {lineno}", line)
    return out


def _grid_number(lineno: int, value: str) -> int | float:
    try:
        return int(value)
    except ValueError:
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"grid line {lineno}: {value!r} is not a number") from None


def parse_grid_text(text: str) -> list[dict]:
    """Grid file: one point per line, comma-separated assignments read by
    ``parse_kv_text``'s rules. Integer-looking values become ints, the
    rest floats."""
    points = []
    for lineno, line in _lines(text):
        point: dict[str, str] = {}
        for part in line.split(","):
            _assign(point, f"grid line {lineno}", part)
        points.append({key: _grid_number(lineno, value) for key, value in point.items()})
    if not points:
        raise ValueError("grid file holds no points")
    return points


def load_kv(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return parse_kv_text(fh.read())


# the kinds of field; each reads as the end of its error message
INTEGER = "an integer"
REAL = "a number"
REALS = "a comma-separated list of numbers"
STRING = "a string"
# the containers of a manifest, which cli._check_field checks down to what
# their readers index
OBJECT = "an object"
OBJECT_OF_STRINGS = "an object of strings"
LIST_OF_STRINGS = "a list of strings"
GRID = "null or a list of objects"
FILE_NAMES = "an object of plain file names"

# the kind of every field of every command's config and manifest; a name has
# one kind in every command
FIELD_KINDS = {
    **dict.fromkeys(("n", "p", "k", "reps", "seed", "master_seed", "k_star", "u_samples", "restarts"), INTEGER),
    **dict.fromkeys(("sigma", "eps", "slope_q", "noise_scale", "amplitude", "delta0", "delta1", "delta2", "delta3", "q"), REAL),
    "amplitudes": REALS,
    **dict.fromkeys(("estimator_id", "amplitude_unit", "support_rule", "subcommand", "lemma"), STRING),
    **dict.fromkeys(("config", "settings"), OBJECT),
    "experiment": OBJECT_OF_STRINGS,
    "estimators": LIST_OF_STRINGS,
    "grid": GRID,
    "outputs": FILE_NAMES,
}

# the default of a field that a command cannot run without
REQUIRED = dataclasses.MISSING

# each command's fields and their defaults, in the order they are read
EXPERIMENT_FIELDS = {field.name: field.default for field in dataclasses.fields(ExperimentConfig)}
# amplitude is in threshold units, as in ExperimentConfig; k_star defaults to
# 2k, and delta0 to the conditioning-event value for eps, resolved by the drivers
LEMMA_FIELDS = {
    **dict.fromkeys(("n", "p", "k", "sigma", "eps"), REQUIRED),
    "amplitude": 4.0,
    "k_star": None,
    "delta0": None,
    "delta1": 0.02,
    "delta2": 0.02,
    "delta3": 0.05,
    "u_samples": 64,
    "q": 2.0,
    "restarts": 16,
}
DIAGNOSE_FIELDS = {"n": REQUIRED, "p": REQUIRED, "k": REQUIRED, "eps": REQUIRED, "restarts": 64, "seed": 0}
CHECK_LEMMA_FIELDS = {"lemma": REQUIRED, "reps": 10_000, "seed": 0}


def _read_number(kind: str, key: str, text: str):
    try:
        return int(text) if kind is INTEGER else float(text)
    except ValueError:
        raise ValueError(f"config key {key!r} must be {kind}, got {text!r}") from None


def _read(key: str, text: str):
    """The typed value of one field from its text."""
    kind = FIELD_KINDS[key]
    if kind is STRING:
        return text
    if kind is not REALS:
        return _read_number(kind, key, text)
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ValueError(f"config key {key!r} must be {REALS}")
    return tuple(_read_number(REAL, key, part) for part in parts)


def _write(key: str, value) -> str:
    """The text of one typed field; _read turns it back into an equal value."""
    kind = FIELD_KINDS[key]
    if kind is REALS:
        return ", ".join(repr(a) for a in value)
    return repr(value) if kind is REAL else str(value)


def _read_fields(fields: dict, mapping: dict[str, str]) -> dict:
    """Typed values of fields from flat text keys; a field that mapping
    omits takes its default. Unknown or missing keys are named in the error."""
    unknown = sorted(set(mapping) - set(fields))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(key for key, default in fields.items() if default is REQUIRED and key not in mapping)
    if missing:
        raise ValueError(f"missing config keys: {', '.join(missing)}")
    return {key: _read(key, mapping[key]) if key in mapping else default for key, default in fields.items()}


def experiment_config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Typed ExperimentConfig from flat text keys; unknown or missing keys
    are named in the error."""
    return ExperimentConfig(**_read_fields(EXPERIMENT_FIELDS, mapping))


def experiment_config_to_mapping(config: ExperimentConfig) -> dict[str, str]:
    """Flat text form of a config, without the fields that are None;
    parse/coerce round-trips to an equal config, and equal configs render to
    identical text."""
    values = {key: getattr(config, key) for key in EXPERIMENT_FIELDS}
    return {key: _write(key, value) for key, value in values.items() if value is not None}


def lemma_config_from_mapping(mapping: dict[str, str]) -> dict:
    """Typed settings for the proof-lemma Monte Carlo drivers, one key per
    LEMMA_FIELDS. sigma must be positive: every driver feeds a penalized fit
    whose level comes from sigma.
    """
    out = _read_fields(LEMMA_FIELDS, mapping)
    if out["k_star"] is None:
        out["k_star"] = 2 * out["k"]
    check_lemma_settings(out)
    return out


def check_lemma_settings(settings: dict) -> None:
    """Refuse, by name, typed lemma settings that a driver cannot run:
    a non-finite real, n below 1, k outside [1, p), sigma not positive,
    sigma and amplitude whose response energy overflows a float, eps
    negative, or k_star outside (k, p). ``replay`` applies the same rules to
    a manifest's settings, which can be edited by hand."""
    for key in LEMMA_FIELDS:
        if FIELD_KINDS[key] is REAL and settings[key] is not None and not math.isfinite(settings[key]):
            raise ValueError(f"config key {key!r} must be finite, got {settings[key]}")
    if settings["n"] < 1:
        raise ValueError(f"n must be at least 1, got {settings['n']}")
    if not 1 <= settings["k"] < settings["p"]:
        raise ValueError(f"need 1 <= k < p, got k={settings['k']}, p={settings['p']}")
    if settings["sigma"] <= 0:
        raise ValueError(f"sigma must be positive for lemma checks, got {settings['sigma']}")
    sigma = settings["sigma"]
    check_response_energy("amplitude", settings["n"], settings["p"], settings["k"], sigma, settings["amplitude"], sigma)
    if settings["eps"] < 0:
        raise ValueError(f"eps must be nonnegative, got {settings['eps']}")
    if not settings["k"] < settings["k_star"] < settings["p"]:
        raise ValueError(f"need k < k_star < p, got k_star={settings['k_star']}")
